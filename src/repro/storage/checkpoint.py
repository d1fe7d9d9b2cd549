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
value codec (:mod:`repro.storage.codec`, shared with the WAL subsystem)
handles the tuples that aggregate accumulators use.

The public entry points are :func:`write_checkpoint` and
:func:`load_checkpoint` — normally reached through the facade's
``ChronicleDatabase.checkpoint()`` / ``restore()``.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Dict, IO, List, Tuple, Union

from ..errors import ChronicleError
from ..relational.tuples import Row
from .codec import CodecError
from .codec import decode_value as _decode_value
from .codec import encode_value as _encode_value

FORMAT_VERSION = 1


class CheckpointError(ChronicleError):
    """A checkpoint could not be written or restored."""


def _encode_items(items: Any) -> List[List[Any]]:
    return [[_encode_value(key), _encode_value(value)] for key, value in items]


def _decode_items(payload: Dict[str, Any]) -> List[Tuple[Any, Any]]:
    return [
        (_decode_value(key), _decode_value(value)) for key, value in payload["state"]
    ]


def _view_state(view: Any) -> Dict[str, Any]:
    """One persistent view's durable state: its portable fold state.

    The visible rows are a pure function of that state, so they are not
    written.
    """
    return {
        "state": _encode_items(view.state_export()),
        "maintenance_count": view.maintenance_count,
    }


def _restore_view(view: Any, payload: Dict[str, Any]) -> None:
    # Documents written before rows stopped being persisted also carry a
    # "rows" section; state_import regenerates the rows, so it is ignored.
    view.state_import(
        _decode_items(payload), maintenance_count=payload.get("maintenance_count", 0)
    )


def _periodic_state(view_set: Any) -> Dict[str, Any]:
    """Durable state of a periodic view set: clock, expiry, interval views."""
    return {
        "clock": view_set._clock,
        "expired": sorted(view_set._expired),
        "instantiated": view_set._instantiated,
        "views": {
            str(index): _view_state(view)
            for index, view in view_set._active.items()
        },
    }


def _restore_periodic(view_set: Any, payload: Dict[str, Any]) -> None:
    view_set._clock = payload.get("clock")
    view_set._expired = set(payload.get("expired", []))
    view_set._instantiated = payload.get("instantiated", 0)
    view_set._active.clear()
    for index_text, view_payload in payload.get("views", {}).items():
        view = view_set._view(int(index_text))
        _restore_view(view, view_payload)
    # _view() bumps the lifetime counter per materialization; restore the
    # checkpointed figure.
    view_set._instantiated = payload.get("instantiated", len(view_set._active))


def checkpoint_document(db: Any) -> Dict[str, Any]:
    """Build (but do not write) the checkpoint document for *db*.

    This is the in-memory form shared by :func:`write_checkpoint` and the
    durability subsystem's watermark-stamped snapshots.
    """
    try:
        return _checkpoint_document(db)
    except CodecError as exc:
        # The shared codec reports the offending value; at this boundary
        # that is a checkpoint failure.
        raise CheckpointError(str(exc)) from exc


def _checkpoint_document(db: Any) -> Dict[str, Any]:
    document: Dict[str, Any] = {
        "format": FORMAT_VERSION,
        "groups": {
            name: {"watermark": group.watermark} for name, group in db.groups.items()
        },
        "relations": {
            name: [_encode_value(row.values) for row in relation.rows()]
            for name, relation in db.relations.items()
        },
        "views": {
            view.name: _view_state(view) for view in db.registry.views()
        },
        "periodic": {
            name: _periodic_state(view_set)
            for name, view_set in db.registry._periodic.items()
        },
    }
    # Sharded engine: partitioned views live behind MergedView facades,
    # not in the base registry.  Their durable state is the union of the
    # partitions' fold state (rows regenerate from it on restore), which
    # is exactly the serial engine's state for the same view — so these
    # checkpoints restore into either engine.
    if db.partitioned_views:
        document["merged"] = {}
        for name in db.partitioned_views:
            items, count = db.view(name).export_state()
            document["merged"][name] = {
                "state": _encode_items(items),
                "maintenance_count": count,
            }
    return document


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
    append continues the sequence-number domain where it left off.
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
    if document.get("format") != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint format {document.get('format')!r}"
        )
    for name, payload in document["groups"].items():
        if name not in db.groups:
            raise CheckpointError(f"checkpoint names unknown group {name!r}")
        issuer = db.groups[name]._issuer
        if payload["watermark"] > issuer.watermark:
            issuer.accept(payload["watermark"])
    for name, rows in document["relations"].items():
        if name not in db.relations:
            raise CheckpointError(f"checkpoint names unknown relation {name!r}")
        relation = db.relations[name]
        relation.current.clear()
        for values in rows:
            relation.current.insert(
                Row(relation.schema, _decode_value(values))
            )
    known_views = {view.name: view for view in db.registry.views()}
    merged_views = {name: db.view(name) for name in db.partitioned_views}
    for name, payload in document["views"].items():
        if name in known_views:
            _restore_view(known_views[name], payload)
        elif name in merged_views:
            # A serial checkpoint restoring into a sharded database: the
            # fold state routes to the owning shards; rows regenerate.
            merged_views[name].import_state(
                _decode_items(payload), payload.get("maintenance_count", 0)
            )
        else:
            raise CheckpointError(f"checkpoint names unknown view {name!r}")
    for name, payload in document.get("merged", {}).items():
        items = _decode_items(payload)
        count = payload.get("maintenance_count", 0)
        if name in merged_views:
            merged_views[name].import_state(items, count)
        elif name in known_views:
            # A sharded checkpoint restoring into a serial database.
            known_views[name].state_import(items, maintenance_count=count)
        else:
            raise CheckpointError(f"checkpoint names unknown view {name!r}")
    for name, payload in document.get("periodic", {}).items():
        if name not in db.registry._periodic:
            raise CheckpointError(
                f"checkpoint names unknown periodic view {name!r}"
            )
        _restore_periodic(db.registry._periodic[name], payload)

