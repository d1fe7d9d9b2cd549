"""Checkpointing: durable snapshots of a chronicle database's state.

The chronicle model's whole point is that the stream is *not* stored —
which makes the persistent views' state the only copy of the summarized
history.  A production deployment therefore needs durability for:

* the group watermarks (so the append rule survives a restart);
* every persistent view's fold state — its aggregate accumulators
  (finalized values alone cannot resume AVG/VAR state), from which the
  materialized rows regenerate on restore;
* relations (they are ordinary stored data);
* periodic view sets: the clock, expired-interval bookkeeping, and every
  active interval view's accumulators.

The format is a single JSON document (version-tagged).  JSON keeps the
checkpoint inspectable and avoids pickle's code-execution surface; the
value codec (:mod:`repro.storage.codec`, shared with the WAL's snapshot
chain) handles the tuples that aggregate accumulators use.

Two kinds of document share that codec, one builder (:func:`_document`:
a base is the delta of every key) and one loader:

* a **base** (:func:`checkpoint_document`, ``"format": 1``) holds all of
  the state — what :func:`write_checkpoint` writes and what a durability
  chain starts with;
* a **delta** (:func:`delta_document`, ``"format": "delta-1"``) holds
  only what changed since the previous base or delta: the
  ``(key, accumulators)`` pairs the folds touched, the relation rows
  whose keys changed, and the periodic sets' clocks and active
  intervals.  It is built from what the folds already recorded, so it
  costs what changed, not |V|.  Its format tag is deliberately not an
  integer: a build that predates deltas refuses it ("unsupported
  checkpoint format") rather than restoring it as if it were a base.

:func:`load_checkpoint` applies either: a base replaces the state, a
delta is merged over it key by key.

The public entry points are :func:`write_checkpoint` and
:func:`load_checkpoint` — normally reached through the facade's
``ChronicleDatabase.checkpoint()`` / ``restore()``.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Dict, IO, Iterator, List, Optional, Tuple, Union

from ..errors import ChronicleError
from ..relational.tuples import Row
from .codec import CodecError
from .codec import decode_value as _decode_value
from .codec import encode_value as _encode_value

FORMAT_VERSION = 1
#: The format tag of a delta document.
DELTA_FORMAT = "delta-1"


class CheckpointError(ChronicleError):
    """A checkpoint could not be written or restored."""


def is_delta(document: Dict[str, Any]) -> bool:
    """Whether *document* is a delta (else a base, or not a checkpoint)."""
    return document.get("format") == DELTA_FORMAT


def _encode_items(items: Any) -> List[List[Any]]:
    return [[_encode_value(key), _encode_value(value)] for key, value in items]


def _decode_items(payload: Dict[str, Any]) -> Iterator[Tuple[Any, Any]]:
    # Streamed into the view: the decoded items are never all alive
    # beside their JSON form.
    return (
        (_decode_value(key), _decode_value(value)) for key, value in payload["state"]
    )


def _view_state(view: Any, items: Any) -> Optional[Dict[str, Any]]:
    """One view's durable state: portable fold-state items (None when a
    delta finds the view not recording).

    The visible rows are a pure function of that state, so they are not
    written.
    """
    if items is None:
        return None
    return {"state": _encode_items(items), "maintenance_count": view.maintenance_count}


def _restore_view(view: Any, payload: Dict[str, Any], upsert: bool) -> None:
    # Documents written before rows stopped being persisted also carry a
    # "rows" section; state_import regenerates the rows, so it is ignored.
    view.state_import(
        _decode_items(payload),
        maintenance_count=payload.get("maintenance_count", 0),
        upsert=upsert,
    )


def _periodic_state(view_set: Any, base: bool) -> Optional[Dict[str, Any]]:
    """A periodic view set's clock, expiry and active interval views.

    In a delta every active interval is listed (an absent one expired),
    with only its touched items; None when the set is not recording.
    """
    if base:
        items = {index: view.state_export() for index, view in view_set._active.items()}
    else:
        items = view_set.take_touched()
        if items is None:
            return None
    return {
        "clock": view_set._clock,
        "expired": sorted(view_set._expired),
        "instantiated": view_set._instantiated,
        "views": {
            str(index): _view_state(view, items[index])
            for index, view in view_set._active.items()
        },
    }


def _restore_periodic(view_set: Any, payload: Dict[str, Any], upsert: bool) -> None:
    view_set._recording = False
    view_set._clock = payload.get("clock")
    view_set._expired = set(payload.get("expired", []))
    views = payload.get("views", {})
    if upsert:
        for index in [i for i in view_set._active if str(i) not in views]:
            del view_set._active[index]
    else:
        view_set._active.clear()
    for index_text, view_payload in views.items():
        _restore_view(view_set._view(int(index_text)), view_payload, upsert)
    # _view() bumps the lifetime counter per materialization; restore the
    # checkpointed figure.
    view_set._instantiated = payload.get("instantiated", len(view_set._active))


def checkpoint_document(db: Any, record: bool = False) -> Dict[str, Any]:
    """Build (but do not write) the base checkpoint document for *db*.

    This is the in-memory form shared by :func:`write_checkpoint` and the
    durability subsystem's watermark-stamped snapshots.  With *record*,
    every view, periodic set and relation also starts recording what
    changes from here on — the content of the next :func:`delta_document`.
    """
    if record:
        for view in db.views():
            view.record_touched()
        for registered in db.registry._periodic.values():
            registered.view.record_touched()
        for relation in db.relations.values():
            relation.record_dirty()
    return _document(db, base=True)


def delta_document(db: Any) -> Optional[Dict[str, Any]]:
    """Build the delta of everything changed since the last recording
    base (``checkpoint_document(db, record=True)``) or delta.

    None when some view, periodic set or relation is not recording —
    defined, created or restored since — so only a base can describe it.
    Recording restarts empty either way: a None must be followed by a
    base.
    """
    return _document(db, base=False)


def _document(db: Any, base: bool) -> Optional[Dict[str, Any]]:
    """The one document builder: a base is the delta of every key.

    Each view (a partitioned view through its merged handle, whose state
    is the union of its partitions' — so documents restore into either
    engine) writes its whole state in a base and its touched items in a
    delta; each relation writes every row in a base and, in a delta, its
    changed keys (a deleted key as None) or, keyless, every row.
    """
    try:
        views = {
            view.name: _view_state(view, view.state_export() if base else view.take_touched())
            for view in db.views()
        }
        periodic = {
            name: _periodic_state(registered.view, base)
            for name, registered in db.registry._periodic.items()
        }
        if None in views.values() or None in periodic.values():
            return None
        relations: Dict[str, Any] = {}
        relation_rows: Dict[str, Any] = {}
        for name, relation in db.relations.items():
            dirty = True if base else relation.take_dirty()
            if dirty is None:
                return None
            if dirty and (base or relation.schema.key is None):
                relations[name] = [_encode_value(row.values) for row in relation.rows()]
            elif dirty:
                rows = {key: relation.lookup_key(key) for key in dirty}
                relation_rows[name] = [
                    [_encode_value(key), None if row is None else _encode_value(row.values)]
                    for key, row in rows.items()
                ]
        document: Dict[str, Any] = {
            "format": FORMAT_VERSION if base else DELTA_FORMAT,
            "groups": {name: {"watermark": g.watermark} for name, g in db.groups.items()},
            "relations": relations,
            "relation_rows": relation_rows,
            "views": views,
            "periodic": periodic,
        }
        if base:  # a base replaces every relation whole
            del document["relation_rows"]
        return document
    except CodecError as exc:
        # The shared codec reports the offending value; at this boundary
        # that is a checkpoint failure.
        raise CheckpointError(str(exc)) from exc


def write_checkpoint(db: Any, target: Union[str, IO[str]]) -> Dict[str, Any]:
    """Write a checkpoint of *db* to a path or text file object.

    Returns the (already-serialized) document for inspection.  Writing to
    a path is atomic (temp file + rename).
    """
    document = checkpoint_document(db)
    if isinstance(target, str):
        directory = os.path.dirname(os.path.abspath(target)) or "."
        fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".ckpt")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(document, handle)
            os.replace(temp_path, target)
        except BaseException:
            if os.path.exists(temp_path):
                os.unlink(temp_path)
            raise
    else:
        json.dump(document, target)
    return document


def load_checkpoint(db: Any, source: Union[str, IO[str], Dict[str, Any]]) -> None:
    """Restore *db* (with schema already re-declared) from a checkpoint.

    The database must have been rebuilt to the same shape — same groups,
    relations, and view definitions — before restoring; the checkpoint
    carries state, not schema.  Group watermarks are advanced so the next
    append continues the sequence-number domain where it left off.  A
    base replaces what it names; a delta document is merged over the
    current state key by key (the same locate-once insert/swap as a
    fold), so base + deltas applied in order restore the chain's state.
    Everything loaded stops recording touched keys.
    """
    try:
        _load_checkpoint(db, source)
    except CodecError as exc:
        raise CheckpointError(str(exc)) from exc


def _load_checkpoint(db: Any, source: Union[str, IO[str], Dict[str, Any]]) -> None:
    if isinstance(source, str):
        with open(source) as handle:
            document = json.load(handle)
    elif isinstance(source, dict):
        document = source
    else:
        document = json.load(source)
    if document.get("format") not in (FORMAT_VERSION, DELTA_FORMAT):
        raise CheckpointError(
            f"unsupported checkpoint format {document.get('format')!r}"
        )
    upsert = is_delta(document)
    for name, payload in document["groups"].items():
        if name not in db.groups:
            raise CheckpointError(f"checkpoint names unknown group {name!r}")
        issuer = db.groups[name]._issuer
        if payload["watermark"] > issuer.watermark:
            issuer.accept(payload["watermark"])
    for name, rows in document["relations"].items():
        relation = _relation(db, name)
        relation.restore_rows(Row(relation.schema, _decode_value(values)) for values in rows)
    for name, changed in document.get("relation_rows", {}).items():
        relation = _relation(db, name)
        relation.restore_rows(
            [
                Row(relation.schema, _decode_value(values))
                for _, values in changed
                if values is not None
            ],
            keys=[_decode_value(key) for key, _ in changed],
        )
    views = {view.name: view for view in db.views()}
    # Builds before partitioned views joined "views" wrote them to "merged".
    for name, payload in {**document["views"], **document.get("merged", {})}.items():
        if name not in views:
            raise CheckpointError(f"checkpoint names unknown view {name!r}")
        _restore_view(views[name], payload, upsert)
    for name, payload in document.get("periodic", {}).items():
        if name not in db.registry._periodic:
            raise CheckpointError(
                f"checkpoint names unknown periodic view {name!r}"
            )
        _restore_periodic(db.registry.periodic(name), payload, upsert)


def _relation(db: Any, name: str) -> Any:
    if name not in db.relations:
        raise CheckpointError(f"checkpoint names unknown relation {name!r}")
    return db.relations[name]
