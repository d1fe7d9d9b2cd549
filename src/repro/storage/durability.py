"""The durability subsystem: append-ahead logging + snapshot recovery.

The chronicle model's asset is view state — the stream itself is never
stored, so a crash that loses the views would force exactly the
unbounded recompute the model forbids.  :class:`DurabilityManager` makes
restart cheap instead:

* every **admitted batch** is written to the append-ahead log *before*
  maintenance applies it (the ``wal_sink`` hook fires between chronicle
  storage and the maintenance listeners in
  :meth:`~repro.core.group.ChronicleGroup._append_impl`);
* catalog operations (groups, chronicles, relations, view definitions)
  are interleaved in the same ordered log, so a view defined mid-stream
  replays at the right point relative to the data;
* in ``wal+snapshot`` mode, a watermark-stamped snapshot is written
  every ``snapshot_interval_batches`` batches and the covered log tail
  is truncated — recovery work and disk are both bounded by the
  interval.  Snapshots form a **base + delta chain**
  (:mod:`repro.storage.checkpoint` builds both kinds): a delta holds
  only what the folds touched since the previous snapshot; a base holds
  everything and replaces the chain.  A base is written when there is
  no chain, after any catalog change, when some state is not being
  recorded (restored or created since), after a failed snapshot, and
  when the chain's delta bytes reach ``COMPACTION_RATIO`` times the
  base's — so the chain stays under two bases plus one delta.

Recovery (:func:`open_database`, reached through
``ChronicleDatabase.open``) rebuilds the catalog from the logged DDL,
loads the chain — the base, then each delta over it, through the one
checkpoint loader — then replays the log tail through the normal
``ingest_stamped`` → ``on_event`` maintenance path — on the sharded
engine, each event is routed and applied only to shards whose watermark
is still behind it.

Known limits (documented in docs/api.md): chronicle retention windows
rebuild only from the replayed tail; rows inserted directly into a
relation (``db.relation(...).insert``) and programmatic periodic views
are durable only through snapshots; a programmatic view whose summary
has no portable plan spec cannot be logged — defining one raises a
:class:`NonDurableWarning` and recovery will not rebuild it.

Periodic-view *clocks* are more durable than their definitions: every
registered :class:`~repro.views.periodic.PeriodicViewSet`'s latest
observed chronon is persisted to the WAL ``meta`` table (cheap upsert,
written only when it moved) so that after ``ChronicleDatabase.open()``
a re-defined programmatic periodic view resumes its cadence — interval
expiry picks up where the crash left it instead of restarting from a
blank clock (:meth:`DurabilityManager.seed_periodic_clock`).
"""

from __future__ import annotations

import os
import threading
import time
import warnings
import weakref
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple

from ..errors import ChronicleError
from ..obs import runtime as obs_runtime
from ..relational.tuples import Row
from .checkpoint import checkpoint_document, delta_document, is_delta
from .wal import ChronicleWal, WalError

__all__ = [
    "DurabilityManager",
    "NonDurableWarning",
    "RecoveryError",
    "RecoveryReport",
    "open_database",
]


class RecoveryError(ChronicleError):
    """Durable state exists but could not be recovered."""


class NonDurableWarning(UserWarning):
    """An operation produced state the durability subsystem cannot log."""


#: ``meta``-table key prefix for persisted periodic-view clocks
#: (``periodic_clock:<view name>`` → latest observed chronon).
_PERIODIC_CLOCK_PREFIX = "periodic_clock:"

#: Compaction: once the chain's deltas sum to this many times the base's
#: bytes, the next snapshot is a base.  Bounds recovery's chain reading
#: at (1 + ratio) bases plus one delta.
COMPACTION_RATIO = 1.0

#: Thread-local marker set while ``open_database`` constructs a database
#: over existing durable state — the only context in which the manager
#: accepts a non-fresh log.
_OPEN_STATE = threading.local()


def _opening() -> bool:
    return getattr(_OPEN_STATE, "active", False)


@dataclass(frozen=True)
class RecoveryReport:
    """What one recovery did: snapshot used + log tail replayed."""

    snapshot_watermark: Optional[int]
    replayed_batches: int
    replayed_ddl: int
    replayed_relation_updates: int
    seconds: float


class _ChronicleMap:
    """Lazy chronicle resolution for rebuilding view plan specs."""

    def __init__(self, db: Any) -> None:
        self._db = db

    def __getitem__(self, name: str) -> Any:
        return self._db.chronicle(name)


def _apply_ddl(db: Any, op: Tuple[Any, ...]) -> None:
    """Re-apply one logged catalog operation during recovery."""
    from ..algebra.plan import build_schema, build_summary

    kind = op[0]
    if kind == "group":
        db.create_group(op[1], start=op[2])
    elif kind == "chronicle":
        _, name, schema, retention, group = op
        db.create_chronicle(
            name, build_schema(schema), retention=retention, group=group
        )
    elif kind == "relation":
        _, name, schema, group, keep_history = op
        db.create_relation(
            name, build_schema(schema), group=group, keep_history=keep_history
        )
    elif kind == "view_text":
        _, name, definition, materialize = op
        db.define_view(definition, name=name, materialize=materialize)
    elif kind == "view_spec":
        _, name, spec, materialize = op
        summary = build_summary(spec, _ChronicleMap(db))
        db.define_view(summary, name=name, materialize=materialize)
    elif kind == "drop_view":
        db.drop_view(op[1])
    else:
        raise RecoveryError(f"unknown catalog operation {kind!r} in log")


class DurabilityManager:
    """Owns one database's append-ahead log, snapshots, and recovery.

    Created by the facade when ``config.durability.mode != "off"``; the
    facade and the chronicle groups call in through narrow hooks
    (``admission_sink``, ``record_ddl``, ``batch_committed``) that are
    never reached when durability is off — the zero-cost idiom of the
    observability layer.
    """

    def __init__(self, db: Any, config: Any) -> None:
        self._db_ref = weakref.ref(db)
        self.config = config
        self.wal = ChronicleWal(config.dir, fsync=config.fsync)
        self.last_recovery: Optional[RecoveryReport] = None
        self._batches_since_snapshot = 0
        #: Clocks loaded from the ``meta`` table during recovery, keyed
        #: by view name — consumed by :meth:`seed_periodic_clock` when a
        #: programmatic periodic view is re-defined after ``open()``.
        self._recovered_clocks: Dict[str, float] = {}
        #: Last clock value written per view — skips the ``meta`` upsert
        #: when nothing moved (the common case between expiries).
        self._logged_clocks: Dict[str, float] = {}
        #: The snapshot chain on disk: its base's bytes (0 = no chain),
        #: and the deltas written after it.
        self._base_bytes = 0
        self._delta_bytes = 0
        self._chain_deltas = 0
        #: The next snapshot must be a base: the catalog changed, or a
        #: snapshot failed after the folds' records were taken.
        self._base_due = False
        self._closed = False
        #: False while recovery replays the log — replayed operations
        #: must not be re-logged.
        self._live = True
        if not self.wal.is_fresh() and not _opening():
            self.wal.close()
            raise WalError(
                f"directory {config.dir!r} holds existing durable state; "
                f"open it with ChronicleDatabase.open({config.dir!r}, ...) "
                f"instead of constructing over it"
            )

    def _database(self) -> Any:
        db = self._db_ref()
        if db is None:
            raise WalError("the durable database no longer exists")
        return db

    def _watermark(self) -> int:
        db = self._db_ref()
        if db is None:
            return -1
        return max((g.watermark for g in db.groups.values()), default=-1)

    # -- hot path -------------------------------------------------------------

    def attach_group(self, group: Any) -> None:
        """Point a group's ``wal_sink`` at this manager."""
        group.wal_sink = self.admission_sink

    def admission_sink(self, group: Any, event: Mapping[str, Any], watermark: int) -> None:
        """Log one admitted batch — called *before* maintenance applies it."""
        if self._closed or not self._live:
            return
        payload = {
            name: [row.values for row in rows] for name, rows in event.items()
        }
        obs = obs_runtime.ACTIVE
        if obs is None:
            self.wal.log_batch(group.name, payload, watermark)
        else:
            with obs.tracer.span("wal_append", group=group.name) as span:
                span.attrs["bytes"] = self.wal.log_batch(group.name, payload, watermark)
        self._batches_since_snapshot += 1

    @contextmanager
    def window(self) -> Iterator[None]:
        """One durable ``ingest`` window: its batches' log rows commit as
        one transaction.  They commit when the window raises too, so the
        log holds the rows one commit per batch would have left."""
        if self._closed or not self._live:
            yield
            return
        self.wal.begin()
        try:
            yield
        finally:
            self.wal.commit()

    def batch_committed(self) -> None:
        """Facade hook after maintenance finished one batch/window.

        Snapshots run here — never inside the admission path — so the
        checkpoint document always captures fully-maintained view state.
        """
        if self._closed or not self._live:
            return
        self._record_periodic_clocks()
        if (
            self.config.mode == "wal+snapshot"
            and self._batches_since_snapshot >= self.config.snapshot_interval_batches
        ):
            self.snapshot()

    # -- periodic-view clocks ---------------------------------------------------

    def _record_periodic_clocks(self) -> None:
        """Persist moved periodic-view clocks to the ``meta`` table."""
        db = self._db_ref()
        if db is None:
            return
        for name, view_set in db.registry._periodic.items():
            clock = view_set._clock
            if clock is None:
                continue
            clock = float(clock)
            if self._logged_clocks.get(name) == clock:
                continue
            self.wal.set_meta(_PERIODIC_CLOCK_PREFIX + name, repr(clock))
            self._logged_clocks[name] = clock

    def seed_periodic_clock(self, view_set: Any) -> None:
        """Resume a (re-)defined periodic view's cadence from the log.

        Called by the facade whenever a periodic view is registered on a
        durable database: if the ``meta`` table recorded a clock for
        this view name before the crash (or a recovered snapshot/tail
        already advanced it), the later of the two wins, so interval
        expiry continues from where the previous process stopped.
        """
        recovered = self._recovered_clocks.get(view_set.name)
        if recovered is None:
            return
        if view_set._clock is None or recovered > view_set._clock:
            view_set._clock = recovered
            view_set._expire_stale()

    # -- catalog + relation logging -------------------------------------------

    def record_ddl(self, op: Tuple[Any, ...]) -> None:
        if self._closed or not self._live:
            return
        self.wal.log_ddl(op, self._watermark())
        # Recovery applies the DDL up to the chain's end before loading
        # the base: a dropped view's state in the base would be orphaned.
        self._base_due = True

    def record_view_definition(
        self, definition: Any, name: Optional[str], materialize: bool
    ) -> None:
        if self._closed or not self._live:
            return
        if isinstance(definition, str):
            self.record_ddl(("view_text", name, definition, materialize))
        else:
            from ..algebra.plan import is_portable, summary_spec

            if not is_portable(definition):
                warnings.warn(
                    f"programmatic view {name!r} has no portable plan spec; "
                    f"recovery will not rebuild it — re-define it after open()",
                    NonDurableWarning,
                    stacklevel=4,
                )
                return
            self.record_ddl(("view_spec", name, summary_spec(definition), materialize))
        # A view defined mid-stream may have materialized from chronicle
        # history the truncated log can no longer rebuild; snapshotting
        # right after the definition captures that state while it is
        # fresh (DDL is rare, so the cost is bounded).  In plain "wal"
        # mode the full log replays from the start, which rebuilds the
        # history exactly — no snapshot needed.
        if self.config.mode == "wal+snapshot":
            self.snapshot()

    def record_relation_update(
        self, name: str, key: Any, changes: Dict[str, Any]
    ) -> None:
        if self._closed or not self._live:
            return
        self.wal.log_relation_update(
            name, tuple(key), dict(changes), self._watermark()
        )

    # -- snapshots --------------------------------------------------------------

    def snapshot(self) -> int:
        """Write a watermark-stamped snapshot and truncate the log tail.

        A delta when the chain allows one, else a base (see the module
        docstring); returns the stamped watermark.
        """
        db = self._database()
        obs = obs_runtime.ACTIVE
        span = None if obs is None else obs.tracer.start("snapshot", path=self.wal.path)
        try:
            document = None
            if (
                not self._base_due
                and self._base_bytes
                and self._delta_bytes < COMPACTION_RATIO * self._base_bytes
            ):
                document = delta_document(db)
            base = document is None
            if base:
                document = checkpoint_document(db, record=True)
            kind = "base" if base else "delta"
            if span is not None:
                span.attrs["kind"] = kind
            # Stamped per-shard watermarks: informational for bundle
            # inspection; the authoritative group watermark travels in
            # the document's "groups" section.
            document["watermarks"] = db.watermarks()
            watermark = self._watermark()
            size, truncated = self.wal.write_snapshot(document, watermark, base=base)
            if span is not None:
                span.attrs["bytes"], span.attrs["truncated"] = size, truncated
        except BaseException:
            # The folds' records were taken (or recording restarted) for
            # a snapshot that is not on disk: only a base can follow.
            self._base_due = True
            raise
        finally:
            if span is not None:
                obs.tracer.finish(span)
        if base:
            self._base_bytes, self._delta_bytes, self._chain_deltas = size, 0, 0
            self._base_due = False
        else:
            self._delta_bytes += size
            self._chain_deltas += 1
        self._batches_since_snapshot = 0
        return watermark

    # -- recovery ----------------------------------------------------------------

    def recover(self) -> RecoveryReport:
        """Load the snapshot chain and replay the log tail.

        Catalog operations at or below the chain's last log position are
        applied first (they rebuild the shape the chain's state needs),
        then the base restores watermarks/relations/views and each delta
        is merged over it in order (``db.restore``, the one checkpoint
        loader), then the tail replays in admission order through the
        engines' ``_replay_stamped`` (watermark-aware on both engines).
        A chain that is not one base followed by deltas, or a link that
        does not decode, fails the open with :class:`RecoveryError`.
        """
        db = self._database()
        obs = obs_runtime.ACTIVE
        span = None if obs is None else obs.tracer.start("recovery", path=self.wal.path)
        started = time.perf_counter()
        self._live = False
        try:
            for key, value in self.wal.meta_items(_PERIODIC_CLOCK_PREFIX):
                name = key[len(_PERIODIC_CLOCK_PREFIX):]
                try:
                    self._recovered_clocks[name] = float(value)
                except ValueError:
                    continue
            chain = self.wal.snapshot_chain()
            snapshot = chain[-1] if chain else None
            snapshot_id = snapshot.log_id if snapshot is not None else 0
            replayed_ddl = 0
            for entry in self.wal.ddl_entries(up_to=snapshot_id):
                _apply_ddl(db, entry.payload)
                replayed_ddl += 1
            orphans = set()
            for position, link in enumerate(chain):
                # Decoded one at a time, so a long chain's documents are
                # never all alive together.  A failure part-way fails the
                # open: no database is returned half-restored.
                document = link.decode()
                if is_delta(document) != (position > 0):
                    raise RecoveryError(
                        f"snapshot chain in {self.wal.path} is malformed: "
                        f"row {position + 1} of {len(chain)} is "
                        f"{'a delta' if position == 0 else 'not a delta'}; "
                        f"a chain is one base followed by deltas"
                    )
                # A snapshot may carry state for a programmatic periodic
                # view no logged DDL rebuilds; restoring would abort on
                # the unknown name.  Drop that state (the documented
                # limit) instead of failing the whole recovery — the
                # view's clock still resumes from the meta table once it
                # is re-defined.
                periodic_state = document.get("periodic", {})
                for name in [
                    n for n in periodic_state if n not in db.registry._periodic
                ]:
                    del periodic_state[name]
                    orphans.add(name)
                db.restore(document)
            for name in sorted(orphans):
                warnings.warn(
                    f"snapshot carries state for periodic view {name!r} "
                    f"which no logged DDL rebuilds; dropping it — "
                    f"re-define the view after open() (its clock "
                    f"resumes from the log's meta table)",
                    NonDurableWarning,
                    stacklevel=2,
                )
            if chain:
                self._base_bytes = len(chain[0].text)
                self._delta_bytes = sum(len(link.text) for link in chain[1:])
                self._chain_deltas = len(chain) - 1
            replayed = 0
            relation_updates = 0
            for entry in self.wal.entries(after=snapshot_id):
                if entry.kind == "ddl":
                    _apply_ddl(db, entry.payload)
                    replayed_ddl += 1
                elif entry.kind == "relupdate":
                    name, key, changes = entry.payload
                    db.update_relation(name, key, **changes)
                    relation_updates += 1
                elif entry.kind == "batch":
                    group_name, payload = entry.payload
                    group = db.groups.get(group_name)
                    if group is None:
                        raise RecoveryError(
                            f"log entry {entry.entry_id} names unknown group "
                            f"{group_name!r}"
                        )
                    event = {
                        name: tuple(
                            Row.unchecked(db.chronicle(name).schema, tuple(values))
                            for values in rows
                        )
                        for name, rows in payload.items()
                    }
                    db._replay_stamped(group, event, entry.watermark)
                    replayed += 1
                else:
                    raise RecoveryError(
                        f"unknown log entry kind {entry.kind!r} "
                        f"(entry {entry.entry_id})"
                    )
            # Text-defined periodic views were rebuilt by the DDL replay
            # above; hand each its persisted clock in case the truncated
            # tail no longer reaches the last pre-crash chronon.
            for view_set in db.registry._periodic.values():
                self.seed_periodic_clock(view_set)
            self._logged_clocks = dict(self._recovered_clocks)
            elapsed = time.perf_counter() - started
            self._batches_since_snapshot = replayed
            self.last_recovery = RecoveryReport(
                snapshot_watermark=(
                    snapshot.watermark if snapshot is not None else None
                ),
                replayed_batches=replayed,
                replayed_ddl=replayed_ddl,
                replayed_relation_updates=relation_updates,
                seconds=elapsed,
            )
            if span is not None:
                span.attrs["replayed_batches"] = replayed
                span.attrs["replayed_ddl"] = replayed_ddl
            return self.last_recovery
        except RecoveryError as exc:
            self._recovery_failed(exc)
            raise
        except Exception as exc:
            self._recovery_failed(exc)
            raise RecoveryError(
                f"recovery from {self.wal.path} failed: {exc}"
            ) from exc
        finally:
            self._live = True
            if span is not None:
                obs.tracer.finish(span)

    def _recovery_failed(self, exc: BaseException) -> None:
        """Incident bundle (which counts the failure); close the log."""
        db = self._db_ref()
        handle = db._observability if db is not None else None
        if handle is None:
            from ..obs import Observability

            handle = Observability(audit="off")
            if db is not None:
                handle.bind_database(db)
        bundle = os.path.join(self.config.dir, "recovery-failure.json")
        try:
            handle.incident(
                "recovery-failure",
                path=bundle,
                failure=True,
                error=repr(exc),
                wal=self.wal.path,
            )
        except Exception:
            pass
        self.wal.close()
        self._closed = True

    # -- lifecycle ----------------------------------------------------------------

    def flush(self) -> None:
        """Commit and fsync the log (an explicit durability barrier)."""
        if self._closed:
            return
        if self._live:
            self._record_periodic_clocks()
        obs = obs_runtime.ACTIVE
        if obs is None:
            self.wal.flush()
        else:
            with obs.tracer.span("wal_flush", path=self.wal.path):
                self.wal.flush()

    def close(self) -> None:
        """Finalize the log: final snapshot (if due), fsync, detach, close."""
        if self._closed:
            return
        self._record_periodic_clocks()
        if self.config.mode == "wal+snapshot" and self._batches_since_snapshot:
            self.snapshot()
        self._detach()
        self.wal.close()
        self._closed = True

    def abort(self) -> None:
        """Fault injection: simulate a crash (no snapshot, no finalize)."""
        if self._closed:
            return
        self._detach()
        self.wal.abort()
        self._closed = True

    def _detach(self) -> None:
        db = self._db_ref()
        if db is not None:
            for group in db.groups.values():
                group.wal_sink = None

    @property
    def closed(self) -> bool:
        return self._closed

    def status(self) -> Dict[str, Any]:
        """An inspectable summary (CLI ``SHOW DURABILITY``)."""
        info: Dict[str, Any] = {
            "mode": self.config.mode,
            "dir": self.config.dir,
            "fsync": self.config.fsync,
            "path": self.wal.path,
            "snapshot_interval_batches": self.config.snapshot_interval_batches,
            "closed": self._closed,
            "batches_since_snapshot": self._batches_since_snapshot,
            # The snapshot chain: deltas after the base, and their summed
            # bytes against the base's (a base is due at COMPACTION_RATIO).
            "chain_deltas": self._chain_deltas,
            "chain_delta_bytes": self._delta_bytes,
            "chain_base_bytes": self._base_bytes,
            "last_recovery": (
                asdict(self.last_recovery) if self.last_recovery else None
            ),
        }
        if not self._closed:
            info["log_rows"] = self.wal.log_rows()
        return info


def open_database(config: Any) -> Any:
    """Recover-or-create a durable database (``ChronicleDatabase.open``).

    Constructs the database over the configured durability directory;
    when the directory already holds durable state, recovery runs before
    the database is returned.
    """
    from ..core.database import ChronicleDatabase

    if config.durability.mode == "off":
        raise WalError("open_database requires a durability mode other than 'off'")
    _OPEN_STATE.active = True
    try:
        db = ChronicleDatabase(config=config)
    finally:
        _OPEN_STATE.active = False
    manager = db._durability
    if manager is not None and not manager.wal.is_fresh():
        manager.recover()
    return db
