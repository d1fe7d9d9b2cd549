"""Bounded metrics history: the time axis of the observability stack.

Every other observability surface — ``/metrics``, ``/health``,
``SHOW STATS``, the cost ledger — answers "what is true *now*?".  An
operator's questions are almost always about *trajectory*: is
throughput sagging, is shard lag growing, did WAL overhead creep up
before the page fired?  :class:`MetricsHistory` answers those by
sampling the registry on a fixed cadence into a bounded ring of
derived, JSON-ready series:

* **throughput** — records/sec, append events/sec, ingest windows/sec
  (windowed counter deltas);
* **latency** — maintain p50/p99 *of the last interval* via
  :class:`~repro.obs.metrics.HistogramWindow` (a lifetime p99 converges
  to a constant and stops saying anything);
* **freshness** — per-shard ``lag_batches``/``lag_seconds`` and queue
  depth from :meth:`~repro.core.database.ChronicleDatabase.shard_health`
  (cheap, lock-free);
* **durability** — WAL bytes/sec and windowed ``wal_append`` p99;
* **workers** — summed RSS/CPU gauges and the windowed IPC overhead
  fraction;
* **state** — the SLO health status per tick (OK/DEGRADED/FAILING, with
  a transitions track) and incident markers picked up incrementally
  from the :class:`~repro.obs.recorder.FlightRecorder`.

The sampler is strictly *pull*-based: a daemon thread owned by
:class:`~repro.obs.core.Observability` reads instruments that the hot
path already writes.  Nothing in the append/maintain path knows it
exists, so the zero-threads / zero-allocations / byte-identical
contract when observability is off holds by construction.

Three consumers: the ``/timeline`` JSON route and the dependency-free
``/dashboard`` page (:func:`render_dashboard`, inline HTML + SVG
sparklines, no third-party assets) on the metrics exporter, and
``SHOW TIMELINE [n]`` in the CLI (:meth:`MetricsHistory.format`,
unicode sparklines).  Incident bundles embed the trailing window as
``context.timeline`` — a flight-data recording instead of a point
snapshot.
"""

from __future__ import annotations

import html
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence

from .metrics import HistogramWindow

#: Scalar series every sample carries (the ``series=`` vocabulary of
#: ``/timeline``); per-shard tracks travel separately under ``shards``.
SCALAR_SERIES = (
    "records_per_sec",
    "events_per_sec",
    "windows_per_sec",
    "maintain_p50_seconds",
    "maintain_p99_seconds",
    "maintain_events",
    "wal_bytes_per_sec",
    "wal_append_p99_seconds",
    "queue_depth",
    "worker_rss_bytes",
    "worker_cpu_seconds",
    "ipc_overhead_fraction",
)

#: Counter families read as windowed deltas each tick.
_WINDOWED_COUNTERS = (
    "chronicle_records_admitted_total",
    "shard_records_total",
    "append_events_total",
    "ingest_windows_total",
    "wal_bytes_total",
)

#: Trailing samples embedded into incident bundles (``context.timeline``).
INCIDENT_TIMELINE_SAMPLES = 180

_HEALTH_CHARS = {"OK": "O", "DEGRADED": "D", "FAILING": "F"}
_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


class MetricsHistory:
    """A bounded ring of derived metric samples on a fixed cadence.

    Parameters
    ----------
    observability:
        The owning :class:`~repro.obs.core.Observability` — source of
        the registry, recorder, health evaluation, and (via weakref)
        the bound database.
    interval:
        Seconds between samples when the thread runs.
    capacity:
        Ring bound; the default 720 holds 12 minutes at 1s cadence.

    The sampler works threadless too: :meth:`sample_now` captures one
    sample synchronously (the CLI's ``SHOW TIMELINE`` path and the unit
    tests use this).  :meth:`start`/:meth:`stop` manage the daemon
    thread; both are idempotent and restart-safe.
    """

    def __init__(
        self, observability: Any, interval: float = 1.0, capacity: int = 720
    ) -> None:
        if not interval > 0:
            raise ValueError("history interval must be > 0 seconds")
        if capacity < 2:
            raise ValueError("history capacity must be >= 2 samples")
        self.observability = observability
        self.interval = float(interval)
        self.capacity = int(capacity)
        #: Sampler exceptions swallowed by the thread loop (diagnostic).
        self.sample_errors = 0
        self._samples: Deque[Dict[str, Any]] = deque(maxlen=self.capacity)
        self._transitions: Deque[Dict[str, Any]] = deque(maxlen=64)
        # RLock: a FAILING transition inside a sample triggers
        # Observability.incident(), which re-enters timeline() to embed
        # the trailing window in the bundle.
        self._lock = threading.RLock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._last_at: Optional[float] = None
        self._last_counters: Dict[str, float] = {}
        self._last_health: Optional[str] = None
        self._seen_trigger = 0
        metrics = observability.metrics
        self._maintain = HistogramWindow(metrics, "view_maintain_seconds")
        self._wal_append = HistogramWindow(metrics, "wal_append_seconds")
        self._ipc_encode = HistogramWindow(metrics, "ipc_encode_seconds")
        self._ipc_decode = HistogramWindow(metrics, "ipc_decode_seconds")
        self._visibility = HistogramWindow(metrics, "ingest_visibility_seconds")

    # -- lifecycle -----------------------------------------------------------------

    @property
    def running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    def start(self) -> None:
        """Start the daemon sampler thread (error if already running)."""
        with self._lock:
            if self.running:
                from ..errors import ObservabilityError

                raise ObservabilityError("metrics history is already running")
            self._stop = threading.Event()
            self._thread = threading.Thread(
                target=self._run, name="repro-history", daemon=True
            )
            self._thread.start()

    def stop(self) -> None:
        """Stop the sampler thread; the ring stays readable."""
        thread = self._thread
        self._stop.set()
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=5.0)
        self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.sample_now()
            except Exception:
                with self._lock:
                    self.sample_errors += 1

    # -- sampling ------------------------------------------------------------------

    def sample_now(self) -> Dict[str, Any]:
        """Capture one sample synchronously and ring it."""
        with self._lock:
            sample = self._sample()
            self._samples.append(sample)
            return sample

    def _counter_sum(self, name: str) -> float:
        total = 0.0
        for _, instrument in self.observability.metrics.series(name):
            total += instrument.value
        return total

    def _gauge_sum(self, name: str) -> Optional[float]:
        series = self.observability.metrics.series(name)
        if not series:
            return None
        return sum(instrument.value for _, instrument in series)

    def _sample(self) -> Dict[str, Any]:
        obs = self.observability
        now = time.time()
        elapsed = 0.0 if self._last_at is None else max(0.0, now - self._last_at)
        first = self._last_at is None
        self._last_at = now

        def rate(delta: float) -> float:
            return round(delta / elapsed, 3) if elapsed > 0 else 0.0

        totals = {name: self._counter_sum(name) for name in _WINDOWED_COUNTERS}
        deltas = {
            name: 0.0 if first else total - self._last_counters.get(name, 0.0)
            for name, total in totals.items()
        }
        self._last_counters = totals

        # In-process maintenance counts at chronicle admission; the
        # process executor counts shard-applied records instead.
        records = deltas["chronicle_records_admitted_total"]
        if records <= 0:
            records = deltas["shard_records_total"]

        maintain = self._maintain.delta()
        wal_append = self._wal_append.delta()
        encode = self._ipc_encode.delta()
        decode = self._ipc_decode.delta()
        visibility = self._visibility.delta()
        ipc_fraction: Optional[float] = None
        if (
            (encode is not None or decode is not None)
            and visibility is not None
            and visibility.sum > 0
        ):
            ipc_seconds = (encode.sum if encode else 0.0) + (
                decode.sum if decode else 0.0
            )
            ipc_fraction = round(ipc_seconds / visibility.sum, 4)

        queue_depth = 0.0
        shards: Dict[str, Dict[str, float]] = {}
        db = obs.database()
        if db is not None:
            try:
                fleet = db.shard_health()
            except Exception:
                fleet = None
            if fleet is not None:
                queue_depth = float(fleet.queue_depth)
                for lag in fleet.shards:
                    shards[str(lag.shard)] = {
                        "lag_batches": float(lag.lag_batches),
                        "lag_seconds": round(float(lag.lag_seconds), 6),
                    }

        try:
            status: Optional[str] = obs.health().status
        except Exception:
            status = None
        if status is not None and self._last_health not in (None, status):
            self._transitions.append(
                {"at": now, "from": self._last_health, "to": status}
            )
        if status is not None:
            self._last_health = status

        markers = obs.recorder.triggers_since(self._seen_trigger)
        if markers:
            self._seen_trigger = markers[-1]["sequence"]

        return {
            "at": now,
            "interval_seconds": round(elapsed, 6),
            "records_per_sec": rate(records),
            "events_per_sec": rate(deltas["append_events_total"]),
            "windows_per_sec": rate(deltas["ingest_windows_total"]),
            "maintain_p50_seconds": (
                maintain.quantile(0.5) if maintain and maintain.count else None
            ),
            "maintain_p99_seconds": (
                maintain.quantile(0.99) if maintain and maintain.count else None
            ),
            "maintain_events": maintain.count if maintain else 0,
            "wal_bytes_per_sec": rate(deltas["wal_bytes_total"]),
            "wal_append_p99_seconds": (
                wal_append.quantile(0.99) if wal_append and wal_append.count else None
            ),
            "queue_depth": queue_depth,
            "worker_rss_bytes": self._gauge_sum("worker_rss_bytes"),
            "worker_cpu_seconds": self._gauge_sum("worker_cpu_seconds"),
            "ipc_overhead_fraction": ipc_fraction,
            "health": status,
            "shards": shards,
            "incidents": [
                {"at": m["at"], "reason": m["reason"]} for m in markers
            ],
        }

    # -- reads ---------------------------------------------------------------------

    def samples(
        self,
        window_seconds: Optional[float] = None,
        limit: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Ring contents oldest-first, optionally windowed/truncated.

        ``window_seconds`` is measured back from the newest sample (not
        the wall clock), so a paused sampler still returns its tail.
        """
        with self._lock:
            out = list(self._samples)
        if window_seconds is not None and out:
            cutoff = out[-1]["at"] - float(window_seconds)
            out = [s for s in out if s["at"] >= cutoff]
        if limit is not None and limit >= 0:
            out = out[-limit:]
        return out

    def timeline(
        self,
        window_seconds: Optional[float] = None,
        series: Optional[Sequence[str]] = None,
        limit: Optional[int] = None,
    ) -> Dict[str, Any]:
        """The ring as column-oriented, JSON-ready bounded series.

        ``series`` restricts the scalar tracks (unknown names raise
        ``ValueError`` naming the vocabulary); ``at``, ``health``,
        ``shards``, ``incidents``, and ``transitions`` always travel.
        """
        if series:
            unknown = [name for name in series if name not in SCALAR_SERIES]
            if unknown:
                raise ValueError(
                    f"unknown timeline series {unknown}; "
                    f"choose from {list(SCALAR_SERIES)}"
                )
            names: Sequence[str] = list(series)
        else:
            names = SCALAR_SERIES
        samples = self.samples(window_seconds=window_seconds, limit=limit)
        with self._lock:
            transitions = list(self._transitions)
        oldest = samples[0]["at"] if samples else float("inf")
        shard_labels = sorted({label for s in samples for label in s["shards"]})
        return {
            "interval_seconds": self.interval,
            "capacity": self.capacity,
            "count": len(samples),
            "running": self.running,
            "at": [s["at"] for s in samples],
            "series": {name: [s[name] for s in samples] for name in names},
            "health": [s["health"] for s in samples],
            "shards": {
                label: {
                    "lag_batches": [
                        s["shards"].get(label, {}).get("lag_batches")
                        for s in samples
                    ],
                    "lag_seconds": [
                        s["shards"].get(label, {}).get("lag_seconds")
                        for s in samples
                    ],
                }
                for label in shard_labels
            },
            "incidents": [m for s in samples for m in s["incidents"]],
            "transitions": [t for t in transitions if t["at"] >= oldest],
        }

    # -- terminal rendering (SHOW TIMELINE) ----------------------------------------

    def format(self, n: int = 12) -> str:
        """A terminal rendering of the last *n* samples."""
        samples = self.samples(limit=max(1, n))
        if not samples:
            return "timeline: no samples yet"
        span = samples[-1]["at"] - samples[0]["at"]
        lines = [
            f"timeline: last {len(samples)} sample(s) over {span:.1f}s "
            f"(interval {self.interval:g}s, newest last)"
        ]
        rows = (
            ("records/s", "records_per_sec", _fmt_count),
            ("events/s", "events_per_sec", _fmt_count),
            ("maintain p99", "maintain_p99_seconds", _fmt_seconds),
            ("queue depth", "queue_depth", _fmt_count),
            ("wal B/s", "wal_bytes_per_sec", _fmt_count),
        )
        for label, key, fmt in rows:
            values = [s[key] for s in samples]
            if all(v in (None, 0, 0.0) for v in values) and key in (
                "wal_bytes_per_sec",
                "queue_depth",
            ):
                continue
            lines.append(
                f"  {label:<13} {_spark(values)}  last {fmt(values[-1])}"
            )
        lags = [
            max(
                (sh["lag_batches"] for sh in s["shards"].values()),
                default=None,
            )
            for s in samples
        ]
        if any(v is not None for v in lags):
            last = lags[-1]
            lines.append(
                f"  {'max shard lag':<13} {_spark(lags)}  last "
                f"{_fmt_count(last)} batch(es)"
            )
        track = "".join(
            _HEALTH_CHARS.get(s["health"], "·") for s in samples
        )
        lines.append(
            f"  {'health':<13} {track}  (O=OK D=DEGRADED F=FAILING ·=n/a)"
        )
        incidents = [m for s in samples for m in s["incidents"]]
        for marker in incidents[-5:]:
            stamp = time.strftime("%H:%M:%S", time.localtime(marker["at"]))
            lines.append(f"  incident {stamp}  {marker['reason']}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"MetricsHistory(interval={self.interval:g}, "
            f"capacity={self.capacity}, samples={len(self._samples)}, "
            f"running={self.running})"
        )


# -- formatting helpers ------------------------------------------------------------


def _fmt_count(value: Optional[float]) -> str:
    if value is None:
        return "n/a"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    return f"{value:g}"


def _fmt_seconds(value: Optional[float]) -> str:
    if value is None:
        return "n/a"
    if value < 1.0:
        return f"{value * 1000:.2f}ms"
    return f"{value:.3f}s"


def _spark(values: Sequence[Optional[float]]) -> str:
    """Unicode sparkline; ``None`` samples render as ``·``."""
    present = [v for v in values if v is not None]
    if not present:
        return "·" * len(values)
    lo, hi = min(present), max(present)
    span = hi - lo
    out = []
    for value in values:
        if value is None:
            out.append("·")
        elif span <= 0:
            out.append(_SPARK_BLOCKS[3])
        else:
            index = int((value - lo) / span * (len(_SPARK_BLOCKS) - 1) + 0.5)
            out.append(_SPARK_BLOCKS[index])
    return "".join(out)


# -- the /dashboard page -----------------------------------------------------------

#: Samples the dashboard renders (page weight, not ring bound).
DASHBOARD_SAMPLES = 240

#: Status palette (fixed, never themed): good / warning / critical.
_STATUS_COLORS = {"OK": "#0ca30c", "DEGRADED": "#fab219", "FAILING": "#d03b3b"}
_STATUS_ICONS = {"OK": "●", "DEGRADED": "◆", "FAILING": "▲"}

#: Sequential blue ramp (steps 100→700) for the shard-lag heat strip.
_LAG_RAMP = (
    "#cde2fb",
    "#9ec5f4",
    "#6da7ec",
    "#3987e5",
    "#256abf",
    "#184f95",
    "#0d366b",
)

_DASHBOARD_CSS = """
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --text-primary: #0b0b0b; --text-secondary: #52514e; --muted: #898781;
  --grid: #e1e0d9; --baseline: #c3c2b7;
  --series-1: #2a78d6; --series-2: #eb6834; --series-3: #1baf7a;
  --border: rgba(11,11,11,0.10);
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19; --page: #0d0d0d;
    --text-primary: #ffffff; --text-secondary: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --baseline: #383835;
    --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
    --border: rgba(255,255,255,0.10);
  }
}
body.viz-root {
  margin: 0; padding: 24px; background: var(--page);
  color: var(--text-primary);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
header { display: flex; align-items: baseline; gap: 12px; flex-wrap: wrap; }
h1 { font-size: 18px; font-weight: 600; margin: 0; }
.muted { color: var(--muted); font-size: 12px; }
.badge { font-weight: 600; font-size: 13px; }
section { margin-top: 20px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin-top: 16px; }
.tile {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 14px; min-width: 180px;
}
.tile .label { color: var(--text-secondary); font-size: 12px; }
.tile .value { font-size: 24px; font-weight: 600; margin: 2px 0 6px; }
.tile .unit { color: var(--muted); font-size: 12px; font-weight: 400; }
h2 { font-size: 13px; font-weight: 600; color: var(--text-secondary);
     margin: 0 0 8px; }
.panel {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 14px;
}
.band { display: flex; height: 18px; border-radius: 3px; overflow: hidden; }
.band span { flex: 1 1 0; }
.band span + span { margin-left: 1px; }
.legend { margin-top: 6px; font-size: 12px; color: var(--text-secondary); }
.legend b { font-weight: 600; }
.heat { display: grid; grid-template-columns: max-content 1fr; gap: 4px 10px;
        align-items: center; }
.heat .shard { font-size: 12px; color: var(--text-secondary);
               font-variant-numeric: tabular-nums; }
.incidents { margin: 0; padding-left: 18px; }
.incidents li { margin: 2px 0; }
.incidents time { color: var(--text-secondary);
                  font-variant-numeric: tabular-nums; margin-right: 8px; }
footer { margin-top: 20px; font-size: 12px; color: var(--muted); }
svg .line { fill: none; stroke-width: 2; }
svg .area { opacity: 0.12; stroke: none; }
svg .base { stroke: var(--baseline); stroke-width: 1; }
"""


def _svg_sparkline(
    values: Sequence[Optional[float]],
    color: str,
    width: int = 220,
    height: int = 44,
    label: str = "",
) -> str:
    """One server-rendered SVG sparkline (2px line, baseline, area)."""
    points = [
        (i, v) for i, v in enumerate(values) if v is not None
    ]
    if len(values) < 2 or not points:
        return (
            f'<svg width="{width}" height="{height}" role="img">'
            f'<line class="base" x1="0" y1="{height - 1}" x2="{width}" '
            f'y2="{height - 1}"/></svg>'
        )
    lo = min(0.0, min(v for _, v in points))
    hi = max(v for _, v in points)
    span = hi - lo or 1.0
    pad = 3
    step = width / max(1, len(values) - 1)

    def xy(i: int, v: float) -> str:
        x = i * step
        y = pad + (height - 2 * pad) * (1 - (v - lo) / span)
        return f"{x:.1f},{y:.1f}"

    path = " ".join(xy(i, v) for i, v in points)
    first_x = points[0][0] * step
    last_x = points[-1][0] * step
    area = (
        f"{first_x:.1f},{height - 1} {path} {last_x:.1f},{height - 1}"
    )
    last = points[-1]
    lx, ly = xy(*last).split(",")
    title = html.escape(
        f"{label}: last {last[1]:g}, min {min(v for _, v in points):g}, "
        f"max {hi:g} over {len(points)} samples"
    )
    return (
        f'<svg width="{width}" height="{height}" role="img">'
        f"<title>{title}</title>"
        f'<line class="base" x1="0" y1="{height - 1}" x2="{width}" '
        f'y2="{height - 1}"/>'
        f'<polygon class="area" fill="{color}" points="{area}"/>'
        f'<polyline class="line" stroke="{color}" points="{path}"/>'
        f'<circle cx="{lx}" cy="{ly}" r="3" fill="{color}"/>'
        f"</svg>"
    )


def _tile(label: str, value: str, unit: str, spark: str) -> str:
    return (
        '<div class="tile">'
        f'<div class="label">{html.escape(label)}</div>'
        f'<div class="value">{html.escape(value)}'
        f' <span class="unit">{html.escape(unit)}</span></div>'
        f"{spark}</div>"
    )


def _health_band(samples: Sequence[Dict[str, Any]]) -> str:
    cells = []
    for sample in samples:
        status = sample["health"]
        color = _STATUS_COLORS.get(status, "var(--grid)")
        stamp = time.strftime("%H:%M:%S", time.localtime(sample["at"]))
        title = html.escape(f"{stamp} {status or 'n/a'}")
        cells.append(
            f'<span style="background:{color}" title="{title}"></span>'
        )
    legend = " &nbsp; ".join(
        f'<b style="color:{_STATUS_COLORS[s]}">{_STATUS_ICONS[s]}</b> {s}'
        for s in ("OK", "DEGRADED", "FAILING")
    )
    return (
        f'<div class="band">{"".join(cells)}</div>'
        f'<div class="legend">{legend}</div>'
    )


def _lag_heat(samples: Sequence[Dict[str, Any]]) -> str:
    labels = sorted({label for s in samples for label in s["shards"]})
    if not labels:
        return '<div class="muted">no shard fleet (serial engine)</div>'
    peak = max(
        (
            s["shards"][label]["lag_batches"]
            for s in samples
            for label in s["shards"]
        ),
        default=0.0,
    )
    rows = []
    for label in labels:
        cells = []
        for sample in samples:
            lag = sample["shards"].get(label, {}).get("lag_batches")
            if lag is None:
                color, text = "var(--grid)", "n/a"
            elif lag <= 0 or peak <= 0:
                color, text = _LAG_RAMP[0], "0"
            else:
                index = min(
                    len(_LAG_RAMP) - 1,
                    1 + int(lag / peak * (len(_LAG_RAMP) - 2)),
                )
                color, text = _LAG_RAMP[index], f"{lag:g}"
            stamp = time.strftime("%H:%M:%S", time.localtime(sample["at"]))
            title = html.escape(f"{stamp} shard {label}: {text} batch(es)")
            cells.append(
                f'<span style="background:{color}" title="{title}"></span>'
            )
        rows.append(
            f'<div class="shard">shard {html.escape(label)}</div>'
            f'<div class="band">{"".join(cells)}</div>'
        )
    return (
        f'<div class="heat">{"".join(rows)}</div>'
        '<div class="legend">lag in batches, light (caught up) → dark '
        f"(peak {peak:g})</div>"
    )


def _incident_list(samples: Sequence[Dict[str, Any]]) -> str:
    markers = [m for s in samples for m in s["incidents"]]
    if not markers:
        return '<div class="muted">no incidents in window</div>'
    items = []
    for marker in markers[-12:]:
        stamp = time.strftime("%H:%M:%S", time.localtime(marker["at"]))
        items.append(
            f"<li><time>{stamp}</time>"
            f"{html.escape(str(marker['reason']))}</li>"
        )
    return f'<ul class="incidents">{"".join(items)}</ul>'


def render_dashboard(observability: Any) -> str:
    """The single-page ``/dashboard`` HTML (no third-party assets)."""
    history = observability.history
    refresh = 5
    if history is not None:
        refresh = max(2, int(round(history.interval * 2)))
        samples = history.samples(limit=DASHBOARD_SAMPLES)
    else:
        samples = []

    if history is None:
        body = (
            '<section class="panel"><h2>metrics history is off</h2>'
            '<div class="muted">enable it with '
            "<code>DatabaseConfig(observe=True, history=HistoryConfig())"
            "</code> or <code>db.start_history()</code>.</div></section>"
        )
        status = None
    elif not samples:
        body = (
            '<section class="panel"><h2>warming up</h2>'
            '<div class="muted">no samples yet — the first lands within '
            f"{history.interval:g}s.</div></section>"
        )
        status = None
    else:
        last = samples[-1]
        status = last["health"]

        def col(key: str) -> List[Optional[float]]:
            return [s[key] for s in samples]

        p99 = last["maintain_p99_seconds"]
        lag_now = max(
            (sh["lag_batches"] for sh in last["shards"].values()), default=None
        )
        tiles = [
            _tile(
                "throughput",
                _fmt_count(last["records_per_sec"]),
                "records/s",
                _svg_sparkline(
                    col("records_per_sec"), "var(--series-1)",
                    label="records/s",
                ),
            ),
            _tile(
                "maintain p99",
                _fmt_seconds(p99),
                "per interval",
                _svg_sparkline(
                    col("maintain_p99_seconds"), "var(--series-2)",
                    label="maintain p99 (s)",
                ),
            ),
            _tile(
                "queue depth",
                _fmt_count(last["queue_depth"]),
                "window(s)",
                _svg_sparkline(
                    col("queue_depth"), "var(--series-1)", label="queue depth"
                ),
            ),
            _tile(
                "wal",
                _fmt_count(last["wal_bytes_per_sec"]),
                "bytes/s",
                _svg_sparkline(
                    col("wal_bytes_per_sec"), "var(--series-3)",
                    label="wal bytes/s",
                ),
            ),
        ]
        if lag_now is not None:
            lag_track = [
                max(
                    (sh["lag_batches"] for sh in s["shards"].values()),
                    default=None,
                )
                for s in samples
            ]
            tiles.append(
                _tile(
                    "max shard lag",
                    _fmt_count(lag_now),
                    "batch(es)",
                    _svg_sparkline(
                        lag_track, "var(--series-2)", label="max shard lag"
                    ),
                )
            )
        if last["ipc_overhead_fraction"] is not None:
            tiles.append(
                _tile(
                    "ipc overhead",
                    f"{last['ipc_overhead_fraction'] * 100:.1f}%",
                    "of visibility",
                    _svg_sparkline(
                        col("ipc_overhead_fraction"), "var(--series-3)",
                        label="ipc overhead fraction",
                    ),
                )
            )
        body = (
            f'<section class="tiles">{"".join(tiles)}</section>'
            '<section class="panel"><h2>health</h2>'
            f"{_health_band(samples)}</section>"
            '<section class="panel"><h2>per-shard lag</h2>'
            f"{_lag_heat(samples)}</section>"
            '<section class="panel"><h2>incidents</h2>'
            f"{_incident_list(samples)}</section>"
        )

    if status in _STATUS_COLORS:
        badge = (
            f'<span class="badge" style="color:{_STATUS_COLORS[status]}">'
            f"{_STATUS_ICONS[status]} {status}</span>"
        )
    else:
        badge = '<span class="badge muted">· no health signal</span>'
    stamp = time.strftime("%H:%M:%S")
    meta = (
        f"{len(samples)} sample(s)"
        + (f" · {history.interval:g}s interval" if history is not None else "")
        + f" · rendered {stamp}"
    )
    return f"""<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<meta http-equiv="refresh" content="{refresh}">
<title>chronicle operations</title>
<style>{_DASHBOARD_CSS}</style>
</head>
<body class="viz-root">
<header>
<h1>chronicle operations</h1>
{badge}
<span class="muted">{meta}</span>
<span class="muted" id="live"></span>
</header>
{body}
<footer>auto-refresh every {refresh}s · JSON at
 <a href="/timeline">/timeline</a> · scrape at <a href="/metrics">/metrics</a>
</footer>
<script>
(async () => {{
  const el = document.getElementById("live");
  try {{
    const r = await fetch("/timeline?limit=1");
    el.textContent = r.ok ? "· live" : "· timeline unavailable";
  }} catch (e) {{
    el.textContent = "· offline";
  }}
}})();
</script>
</body>
</html>
"""
