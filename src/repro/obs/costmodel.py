"""A per-operator cost model fed by finished ``maintain`` spans.

The conformance profiler (:mod:`repro.obs.conformance`) answers "does
this view's cost *scale* the way the paper claims?" with controlled
offline sweeps.  The :class:`CostLedger` answers the complementary
question — "what does each operator of each view *actually cost* under
the live workload?" — by continuously folding every finished
``maintain`` span (and its per-operator ``delta`` children) into
bounded per-``(view, operator, shape)`` aggregates:

* totals — calls, rows, wall seconds, the Theorem-4.2 **work** measure
  (:func:`span_work`) and the locate-step **probes** (:func:`span_probes`);
* an exponentially-weighted moving average of per-call wall time
  (recency-sensitive, so a regression shows up before the lifetime mean
  moves);
* a fixed-bucket latency :class:`~repro.obs.metrics.Histogram` for
  p50/p99.

The **shape** of an entry is the path of operator kinds from the
maintain span down to the operator, prefixed with the engine — e.g.
``compiled/GroupBySeq/Select`` — with ``Kind@i`` positional
disambiguation among same-kind siblings.  The maintain-level rollup
entry uses operator ``maintain`` and the bare engine as its shape.
Shapes mirror the compiled plan structure (fused select/project chains
collapse into their chain-head span), so ledger rows line up one-to-one
with ``EXPLAIN`` output (:mod:`repro.obs.explain`).

Derived statistics (mean, p50, p99) are computed from the stored
totals.  :meth:`CostLedger.as_dict` is the JSON payload the ``/costs``
route and :meth:`~repro.obs.core.Observability.cost_snapshot` serve;
``SHOW COSTS`` renders :meth:`CostLedger.format`.  Certificates from
the conformance profiler are stamped onto matching entries with
:meth:`CostLedger.link_certificates`, so each row can carry its
claimed IM class next to the empirically fitted curve classes.

The ledger is the one fold of ``maintain``/``delta`` span trees: the
span table feeds it the spans that finish in this process, and
``EXPLAIN ANALYZE`` (:mod:`repro.obs.explain`) folds its measured
window into a ledger of its own.

Zero-overhead contract: with no observability installed no spans
finish, so no ledger code runs.

This module is imported by :mod:`repro.obs.core` and therefore must not
import :mod:`repro.obs.conformance` (which imports ``core``); the work/
probe cost measures live *here* and conformance re-exports them.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .metrics import DEFAULT_LATENCY_BUCKETS, Histogram
from .tracer import Span

#: Counter events excluded from the "work" measure (the permitted
#: O(log |V|) locate-step overhead the IM classes are stated modulo).
_LOCATE_EVENTS = frozenset(("index_probe", "index_lookup"))

#: EWMA smoothing factor: each call contributes 10%, so the average
#: reflects roughly the last ~20 calls.
EWMA_ALPHA = 0.1

#: Most distinct (view, operator, shape) keys a ledger allocates: a
#: runaway label space degrades the ledger, never the process.
MAX_ENTRIES = 512


def span_work(counters: Mapping[str, int]) -> int:
    """The Theorem-4.2 work measure of one span's counter diff."""
    return sum(v for k, v in counters.items() if k not in _LOCATE_EVENTS)


def span_probes(counters: Mapping[str, int]) -> int:
    """The locate-step overhead (probes + lookups) of one span."""
    return sum(v for k, v in counters.items() if k in _LOCATE_EVENTS)


def shape_paths(prefix: str, kinds: Sequence[str]) -> List[str]:
    """The shape path of each sibling operator, in order.

    ``prefix/Kind``, or ``prefix/Kind@i`` when several siblings share a
    kind (*i* counts among those siblings).  The cost ledger keys
    ``delta`` spans by it and ``EXPLAIN`` keys described plan nodes by
    it, which is what lines the two up.
    """
    totals: Dict[str, int] = {}
    for kind in kinds:
        totals[kind] = totals.get(kind, 0) + 1
    seen: Dict[str, int] = {}
    paths = []
    for kind in kinds:
        index = seen.get(kind, 0)
        seen[kind] = index + 1
        paths.append(f"{prefix}/{kind}" if totals[kind] == 1 else f"{prefix}/{kind}@{index}")
    return paths


class CostEntry:
    """Aggregate cost statistics for one (view, operator, shape) key."""

    __slots__ = (
        "view",
        "operator",
        "shape",
        "calls",
        "rows",
        "work",
        "probes",
        "seconds",
        "max_seconds",
        "ewma_seconds",
        "counters",
        "histogram",
        "claimed_class",
        "conformant",
        "fitted",
    )

    def __init__(self, view: str, operator: str, shape: str) -> None:
        self.view = view
        self.operator = operator
        self.shape = shape
        self.calls = 0
        self.rows = 0
        self.work = 0
        self.probes = 0
        self.seconds = 0.0
        self.max_seconds = 0.0
        self.ewma_seconds = 0.0
        self.counters: Dict[str, int] = {}
        self.histogram = Histogram(DEFAULT_LATENCY_BUCKETS)
        #: Conformance linkage (stamped by :meth:`CostLedger
        #: .link_certificates`): the claimed IM class, the certificate
        #: verdict, and the fitted curve model per sweep.
        self.claimed_class: Optional[str] = None
        self.conformant: Optional[bool] = None
        self.fitted: Dict[str, str] = {}

    def observe(self, seconds: float, rows: int, counters: Mapping[str, int]) -> None:
        self.calls += 1
        self.rows += int(rows)
        self.work += span_work(counters)
        self.probes += span_probes(counters)
        self.seconds += seconds
        self.max_seconds = max(self.max_seconds, seconds)
        if self.calls == 1:
            self.ewma_seconds = seconds
        else:
            self.ewma_seconds += EWMA_ALPHA * (seconds - self.ewma_seconds)
        self.histogram.observe(seconds)
        for event, amount in counters.items():
            self.counters[event] = self.counters.get(event, 0) + amount

    # Derived statistics — functions of the stored totals.

    @property
    def mean_seconds(self) -> float:
        return self.seconds / self.calls if self.calls else 0.0

    @property
    def p50_seconds(self) -> float:
        return self.histogram.quantile(0.5)

    @property
    def p99_seconds(self) -> float:
        return self.histogram.quantile(0.99)

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "view": self.view,
            "operator": self.operator,
            "shape": self.shape,
            "calls": self.calls,
            "rows": self.rows,
            "work": self.work,
            "probes": self.probes,
            "seconds": self.seconds,
            "max_seconds": self.max_seconds,
            "ewma_seconds": self.ewma_seconds,
            "counters": dict(sorted(self.counters.items())),
            "buckets": list(self.histogram.bucket_counts),
            # Derived — exported for human readers and dashboards.
            "mean_seconds": self.mean_seconds,
            "p50_seconds": self.p50_seconds,
            "p99_seconds": self.p99_seconds,
        }
        if self.claimed_class is not None:
            out["claimed_class"] = self.claimed_class
        if self.conformant is not None:
            out["conformant"] = self.conformant
        if self.fitted:
            out["fitted"] = dict(sorted(self.fitted.items()))
        return out


class CostLedger:
    """Bounded, thread-safe per-(view, operator, shape) cost aggregates.

    Feed it finished ``maintain`` spans (:meth:`observe_maintain`) or
    raw measurements (:meth:`observe`); read it via :meth:`entries`,
    :meth:`as_dict`, or the rendered :meth:`format` table (what ``SHOW
    COSTS`` prints).

    Cardinality is bounded: once :data:`MAX_ENTRIES` distinct keys
    exist, new keys are counted in :attr:`dropped` instead of allocated.
    """

    def __init__(self) -> None:
        self.dropped = 0
        self._entries: Dict[Tuple[str, str, str], CostEntry] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------

    def observe(
        self,
        view: str,
        operator: str,
        shape: str,
        seconds: float,
        rows: int = 0,
        counters: Optional[Mapping[str, int]] = None,
    ) -> None:
        """Fold one measurement into the (view, operator, shape) entry."""
        key = (view, operator, shape)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                if len(self._entries) >= MAX_ENTRIES:
                    self.dropped += 1
                    return
                entry = self._entries[key] = CostEntry(view, operator, shape)
            entry.observe(seconds, rows, counters or {})

    def observe_maintain(self, span: Span) -> None:
        """Fold one finished ``maintain`` span and its delta subtree.

        The maintain span itself becomes the per-view rollup entry
        (operator ``maintain``, shape = engine); each ``delta``
        descendant becomes a per-operator entry keyed by its
        engine-prefixed operator-kind path.
        """
        view = str(span.attrs.get("view", "?"))
        engine = str(span.attrs.get("engine", "?"))
        self.observe(
            view,
            "maintain",
            engine,
            span.duration,
            rows=int(span.attrs.get("rows", 0) or 0),
            counters=span.counters,
        )
        self._observe_deltas(view, engine, span.children)

    def _observe_deltas(
        self, view: str, prefix: str, children: Sequence[Span]
    ) -> None:
        deltas = [c for c in children if c.name == "delta"]
        operators = [str(child.attrs.get("operator", "?")) for child in deltas]
        for child, op, shape in zip(deltas, operators, shape_paths(prefix, operators)):
            self.observe(
                view,
                op,
                shape,
                child.duration,
                rows=int(child.attrs.get("rows", 0) or 0),
                counters=child.counters,
            )
            self._observe_deltas(view, shape, child.children)

    # ------------------------------------------------------------------
    # Conformance linkage
    # ------------------------------------------------------------------

    def link_certificates(self, certificates: Mapping[str, Mapping[str, Any]]) -> int:
        """Stamp conformance verdicts onto every entry of certified views.

        *certificates* is the :attr:`Observability.certificates
        <repro.obs.core.Observability.certificates>` dict (view name →
        :meth:`ConformanceCertificate.to_dict` payload).  Each matching
        ledger entry gains the claimed IM class, the certificate's
        pass/fail verdict, and the fitted curve model per sweep — the
        claimed-vs-fitted pairing the cost-based optimizer consumes.
        Returns the number of entries stamped.
        """
        stamped = 0
        with self._lock:
            for entry in self._entries.values():
                cert = certificates.get(entry.view)
                if not cert:
                    continue
                entry.claimed_class = cert.get("claimed_class")
                conformant = cert.get("conformant")
                entry.conformant = None if conformant is None else bool(conformant)
                entry.fitted = {
                    f"{sweep['parameter']} {sweep['metric']}": str(sweep["model"])
                    for sweep in cert.get("sweeps", ())
                }
                stamped += 1
        return stamped

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def entries(self) -> List[CostEntry]:
        """All entries, sorted by (view, shape, operator)."""
        with self._lock:
            items = list(self._entries.values())
        return sorted(items, key=lambda e: (e.view, e.shape, e.operator))

    def get(self, view: str, operator: str, shape: str) -> Optional[CostEntry]:
        with self._lock:
            return self._entries.get((view, operator, shape))

    def views(self) -> List[str]:
        with self._lock:
            return sorted({view for view, _, _ in self._entries})

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.dropped = 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "dropped": self.dropped,
            "entries": [entry.as_dict() for entry in self.entries()],
        }

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def format(self, view: Optional[str] = None) -> str:
        """The ``SHOW COSTS`` table: one row per ledger entry."""
        entries = self.entries()
        if view is not None:
            entries = [e for e in entries if e.view == view]
        if not entries:
            return (
                "(cost ledger empty — ingest some events with observability "
                "installed to populate it)"
            )
        header = (
            "view",
            "operator",
            "shape",
            "calls",
            "rows",
            "mean",
            "p50",
            "p99",
            "ewma",
            "work/call",
            "class",
        )
        rows: List[Tuple[str, ...]] = [header]
        for e in entries:
            klass = ""
            if e.claimed_class is not None:
                verdict = {True: " ok", False: " FAIL", None: ""}[e.conformant]
                klass = f"{e.claimed_class}{verdict}"
            rows.append(
                (
                    e.view,
                    e.operator,
                    e.shape,
                    str(e.calls),
                    str(e.rows),
                    _us(e.mean_seconds),
                    _us(e.p50_seconds),
                    _us(e.p99_seconds),
                    _us(e.ewma_seconds),
                    f"{e.work / e.calls:.1f}" if e.calls else "0",
                    klass,
                )
            )
        widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
        lines = [
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
            for row in rows
        ]
        if self.dropped:
            lines.append(f"({self.dropped} observations dropped: entry cap reached)")
        return "\n".join(lines)


def _us(seconds: float) -> str:
    if seconds == float("inf"):
        return "inf"
    return f"{seconds * 1e6:.1f}us"
