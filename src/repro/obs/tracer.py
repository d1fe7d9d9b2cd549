"""Span-based tracing for the append/maintenance pipeline.

One *trace* is the tree of spans produced by a single append event::

    append                      (ChronicleGroup.append_simultaneous)
    ├─ prefilter                (ViewRegistry candidate filtering)
    ├─ maintain view=v0         (one span per maintained view)
    │  ├─ delta op=Select       (compiled plan step / interpreter node)
    │  └─ delta op=GroupBySeq
    └─ maintain view=v1
       └─ ...

Each span records wall time (``perf_counter``), free-form attributes
(view name, engine, operator kind, delta row counts), and — the part
that makes the paper's cost theorems *observable* — a
:class:`~repro.complexity.counters.CostCounters` diff covering exactly
the span's dynamic extent, collected through the thread-local
:meth:`~repro.complexity.counters.CostCounters.scope` so concurrent
consumers cannot pollute it.  A parent span's counters include its
children's (scopes nest additively).

Completed root spans land in a bounded ring buffer
(:attr:`Tracer.capacity` most recent traces) and can be exported as
JSON-lines, one trace per line, for offline analysis.

The tracer has two faces: the :meth:`Tracer.span` context manager for
straight-line code, and the explicit :meth:`Tracer.start` /
:meth:`Tracer.finish` pair for hook sites where a ``with`` block would
contort the hot path.

Every span carries identity: a process-unique :attr:`Span.span_id`, the
:attr:`Span.trace_id` of the trace it belongs to (the root span's own
id), and the :attr:`Span.parent_id` of its enclosing span.  The ids
flow through the thread-local stack: every span opened while another is
open on the same thread nests under it (a shard's ``shard_apply`` runs
on the admitting thread, so it nests under the write's ``ingest``).
"""

from __future__ import annotations

import io
import itertools
import json
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Union

from ..complexity.counters import GLOBAL_COUNTERS

import threading

#: Process-wide span-id source.  ``next()`` on an ``itertools.count`` is
#: a single C call, atomic under the GIL — no lock needed.
_SPAN_IDS = itertools.count(1)


class Span:
    """One timed, counter-scoped section of the pipeline."""

    __slots__ = (
        "name",
        "attrs",
        "children",
        "started_at",
        "duration",
        "counters",
        "span_id",
        "trace_id",
        "parent_id",
        "_t0",
        "_scope_cm",
        "_scope",
        "_is_root",
    )

    def __init__(self, name: str, attrs: Dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        self.children: List["Span"] = []
        #: Wall-clock timestamp (``time.time``) when the span started.
        self.started_at = time.time()
        #: Seconds of wall time (``perf_counter``), set at finish.
        self.duration: float = 0.0
        #: Non-zero CostCounters deltas over the span's extent.
        self.counters: Dict[str, int] = {}
        #: Process-unique id of this span.
        self.span_id: int = next(_SPAN_IDS)
        #: Id of the trace this span belongs to (the root span's id).
        self.trace_id: int = self.span_id
        #: Id of the enclosing span (``None`` for roots).
        self.parent_id: Optional[int] = None
        self._t0 = time.perf_counter()
        self._scope_cm = None
        self._scope = None
        self._is_root = False

    # -- structure helpers ---------------------------------------------------------

    @property
    def is_root(self) -> bool:
        """Whether this span is a trace root (no enclosing span)."""
        return self._is_root

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> List["Span"]:
        """Every span named *name* in this subtree."""
        return [span for span in self.walk() if span.name == name]

    # -- export --------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "started_at": self.started_at,
            "duration_us": round(self.duration * 1e6, 3),
            "trace_id": self.trace_id,
            "span_id": self.span_id,
        }
        if self.parent_id is not None:
            out["parent_id"] = self.parent_id
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.counters:
            out["counters"] = dict(self.counters)
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out

    def format(self, indent: int = 0) -> str:
        """A human-readable one-line-per-span rendering of the subtree."""
        attrs = " ".join(f"{k}={v}" for k, v in self.attrs.items())
        counters = ", ".join(f"{k}={v}" for k, v in self.counters.items())
        line = "  " * indent + f"{self.name}"
        if attrs:
            line += f" [{attrs}]"
        line += f" {self.duration * 1e6:,.0f}us"
        if counters:
            line += f" ({counters})"
        lines = [line]
        for child in self.children:
            lines.append(child.format(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, {self.duration * 1e6:.0f}us, "
            f"attrs={self.attrs}, children={len(self.children)})"
        )


class Tracer:
    """Builds span trees per append event and keeps the recent ones.

    Parameters
    ----------
    capacity:
        How many completed root spans (traces) the ring buffer retains.
    on_span_end:
        Callback invoked with every finished span (the auditor and the
        metrics bridge hang off this).
    """

    def __init__(
        self,
        capacity: int = 256,
        on_span_end: Optional[Callable[[Span], None]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("ring capacity must be >= 1")
        self.capacity = capacity
        self.on_span_end = on_span_end
        self._ring: Deque[Span] = deque(maxlen=capacity)
        self._local = threading.local()
        self._completed = 0

    # -- span lifecycle ------------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, name: str, **attrs: Any) -> Span:
        """Open a span nested under the thread's current span."""
        span = Span(name, attrs)
        stack = self._stack()
        span._is_root = not stack
        if stack:
            parent = stack[-1]
            parent.children.append(span)
            span.trace_id = parent.trace_id
            span.parent_id = parent.span_id
        stack.append(span)
        cm = GLOBAL_COUNTERS.scope()
        span._scope = cm.__enter__()
        span._scope_cm = cm
        return span

    def finish(self, span: Span) -> Span:
        """Close *span*: stamp duration and counters, ring roots."""
        span.duration = time.perf_counter() - span._t0
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # defensive: mis-nested finish
            stack.remove(span)
        cm, scoped = span._scope_cm, span._scope
        span._scope_cm = span._scope = None
        if cm is not None:
            cm.__exit__(None, None, None)
            span.counters = {k: v for k, v in scoped.counts.items() if v}
        if span._is_root:
            self._ring.append(span)
            self._completed += 1
        callback = self.on_span_end
        if callback is not None:
            callback(span)
        return span

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Context-manager face of :meth:`start` / :meth:`finish`."""
        span = self.start(name, **attrs)
        try:
            yield span
        finally:
            self.finish(span)

    # -- trace access ----------------------------------------------------------------

    @property
    def completed_count(self) -> int:
        """Lifetime number of completed root spans (ring-independent)."""
        return self._completed

    def traces(self, n: Optional[int] = None) -> List[Span]:
        """The most recent *n* traces, oldest first (all when ``None``)."""
        items = list(self._ring)
        if n is None or n >= len(items):
            return items
        return items[len(items) - n :]

    def last(self) -> Optional[Span]:
        """The most recent completed trace, if any."""
        return self._ring[-1] if self._ring else None

    # -- export -----------------------------------------------------------------------

    def to_jsonl(self, n: Optional[int] = None) -> str:
        """The recent traces as JSON-lines text (one trace per line)."""
        return "".join(
            json.dumps(span.to_dict(), sort_keys=True) + "\n"
            for span in self.traces(n)
        )

    def export_jsonl(self, destination: Union[str, io.TextIOBase]) -> int:
        """Write the ring's traces as JSON-lines; returns traces written.

        *destination* is a path or an open text file object.
        """
        text = self.to_jsonl()
        count = len(self._ring)
        if isinstance(destination, str):
            with open(destination, "w") as handle:
                handle.write(text)
        else:
            destination.write(text)
        return count
