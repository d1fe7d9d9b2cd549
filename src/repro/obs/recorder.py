"""The flight recorder: a black-box ring plus dump-on-anomaly bundles.

When a shard worker throws, the auditor flags a chronicle read, or the
SLO evaluator turns ``FAILING``, the question is always "what was the
engine doing *just before*?" — and by the time anyone asks, the trace
ring has churned and the metrics only show totals.  The
:class:`FlightRecorder` answers it the way an aircraft black box does:
it continuously records a bounded ring of compact event summaries
(finished root spans, watermarks, violations, notes) at negligible
cost, and on a trigger freezes everything into a JSON *incident bundle*
on disk.

Two halves:

* **the ring** — :meth:`FlightRecorder.record_span` summarizes every
  finished *root* span (name, trace/span ids, duration, attrs, the
  views its children maintained) into a dict; :meth:`FlightRecorder
  .note` adds free-form events (engine errors, SLO transitions).  Both
  are lock-guarded deque appends — worker threads record concurrently.
* **the dump** — :meth:`FlightRecorder.trigger` writes
  ``incident-<seq>-<reason>.json`` into :attr:`directory`: the ring,
  the trigger reason and context (snapshot, watermarks, registry
  stats, health report — assembled by :meth:`~repro.obs.core
  .Observability.incident`).  With no directory configured the trigger
  still lands in the ring (and is counted), but nothing touches disk —
  persistence is strictly opt-in.

Triggers are wired in three places: :meth:`Observability.on_span_end`
(auditor violations), :meth:`~repro.parallel.engine.ShardEngine
._dispatch` (shard-worker exceptions), and :meth:`Observability.health`
(transition to ``FAILING``).  :meth:`~repro.core.database
.ChronicleDatabase.dump_incident` is the manual pull-the-tape call.

Shard-worker bundles carry cross-process context when the telemetry
relay was active: the failed :class:`~repro.parallel.engine.ShardTask`'s
window summary (shard, watermark, per-chronicle row counts) under
``context.window``, and the worker's last relayed span records under
``context.worker_spans`` — a crash is diagnosable from the bundle
without reproducing it.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from .tracer import Span


def summarize_span(span: Span) -> Dict[str, Any]:
    """Compress one finished span tree into a flat, JSON-ready summary."""
    out: Dict[str, Any] = {
        "kind": "span",
        "name": span.name,
        "at": span.started_at,
        "duration_us": round(span.duration * 1e6, 3),
        "trace_id": span.trace_id,
        "span_id": span.span_id,
    }
    if span.parent_id is not None:
        out["parent_id"] = span.parent_id
    if span.attrs:
        out["attrs"] = dict(span.attrs)
    if span.counters:
        out["counters"] = dict(span.counters)
    views = [
        child.attrs.get("view")
        for child in span.walk()
        if child.name == "maintain" and "view" in child.attrs
    ]
    if views:
        out["views"] = views
    return out


class FlightRecorder:
    """Bounded black-box ring with dump-on-trigger incident bundles.

    Parameters
    ----------
    capacity:
        Events the ring retains (oldest dropped beyond it).
    directory:
        Where incident bundles land (created on first dump).  ``None``
        disables automatic persistence; explicit-path dumps still work.
    cooldown_seconds:
        Minimum spacing between automatic dumps *per reason* — a warn-
        mode auditor violating on every append must not write a file
        per append.  Explicit-path dumps ignore the cooldown.
    """

    def __init__(
        self,
        capacity: int = 512,
        directory: Optional[str] = None,
        cooldown_seconds: float = 30.0,
    ) -> None:
        if capacity < 1:
            raise ValueError("recorder capacity must be >= 1")
        if cooldown_seconds < 0:
            raise ValueError("cooldown_seconds must be >= 0")
        self.capacity = capacity
        self.directory = directory
        self.cooldown_seconds = cooldown_seconds
        #: Lifetime triggers (including those that wrote no file).
        self.triggered = 0
        #: Lifetime bundles written to disk.
        self.dumped = 0
        self._ring: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        # Side-channel of trigger markers only: the metrics-history
        # sampler polls this every tick, and copying the full ring per
        # tick would dwarf the cost of everything else it reads.
        self._triggers: Deque[Dict[str, Any]] = deque(maxlen=64)
        self._lock = threading.Lock()
        self._sequence = 0
        self._last_dump_at: Dict[str, float] = {}

    # -- the ring ------------------------------------------------------------------

    def record_span(self, span: Span) -> None:
        """Ring one finished root span (non-roots are cheap no-ops)."""
        if not span.is_root:
            return
        summary = summarize_span(span)
        with self._lock:
            self._ring.append(summary)

    def note(self, kind: str, **data: Any) -> None:
        """Ring one free-form event (engine error, status change, ...)."""
        event = {"kind": kind, "at": time.time()}
        event.update(data)
        with self._lock:
            self._ring.append(event)

    def events(self) -> List[Dict[str, Any]]:
        """The ring's events, oldest first (a copy)."""
        with self._lock:
            return list(self._ring)

    def triggers_since(self, sequence: int) -> List[Dict[str, Any]]:
        """Trigger markers newer than *sequence*, oldest first.

        A bounded (last 64) side-channel so pollers can pick up incident
        markers incrementally without copying the event ring.  Filtering
        by trigger sequence rather than wall clock keeps it immune to
        clock adjustments.
        """
        with self._lock:
            return [dict(t) for t in self._triggers if t["sequence"] > sequence]

    # -- dumping -------------------------------------------------------------------

    def trigger(
        self,
        reason: str,
        context: Optional[Dict[str, Any]] = None,
        path: Optional[str] = None,
    ) -> Optional[str]:
        """Record a trigger and (maybe) dump a bundle; returns the path.

        With *path* the bundle goes exactly there, cooldown-free.  With
        :attr:`directory` configured, a ``incident-<seq>-<reason>.json``
        file is written unless the same reason dumped within the
        cooldown.  Otherwise only the ring records the trigger and
        ``None`` is returned.
        """
        now = time.time()
        with self._lock:
            self.triggered += 1
            self._sequence += 1
            sequence = self._sequence
            self._ring.append({"kind": "trigger", "at": now, "reason": reason})
            self._triggers.append(
                {"at": now, "reason": reason, "sequence": sequence}
            )
            if path is None:
                if self.directory is None:
                    return None
                last = self._last_dump_at.get(reason)
                if last is not None and now - last < self.cooldown_seconds:
                    return None
                self._last_dump_at[reason] = now
                os.makedirs(self.directory, exist_ok=True)
                safe_reason = "".join(
                    c if c.isalnum() or c in "-_" else "-" for c in reason
                )
                path = os.path.join(
                    self.directory, f"incident-{sequence:04d}-{safe_reason}.json"
                )
            events = list(self._ring)
        bundle: Dict[str, Any] = {
            "reason": reason,
            "at": now,
            "sequence": sequence,
            "events": events,
        }
        if context:
            bundle["context"] = context
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(bundle, handle, indent=2, sort_keys=True, default=str)
            handle.write("\n")
        with self._lock:
            self.dumped += 1
        return path

    def __repr__(self) -> str:
        return (
            f"FlightRecorder(capacity={self.capacity}, "
            f"directory={self.directory!r}, events={len(self._ring)}, "
            f"triggered={self.triggered}, dumped={self.dumped})"
        )
