"""A small pull-style metrics registry: counters, gauges, histograms.

The registry is the aggregated (cheap, always-on-able) face of the
observability layer: where traces record *individual* appends, metrics
accumulate per-(view, chronicle, operator) totals that stay O(label
cardinality) in memory no matter how long the process runs — the shape
every production IVM deployment actually scrapes.

Three instrument kinds, deliberately mirroring the Prometheus data model
so the text exposition format falls out directly:

* :class:`Counter` — monotonically increasing totals
  (``view_maintained_total``);
* :class:`Gauge` — last-written values (``registered_views``);
* :class:`Histogram` — fixed-bucket latency/size distributions
  (``append_seconds``).  Buckets are chosen at creation and never
  resized, so ``observe()`` is a bisect plus two adds.

Instruments are created lazily and identified by ``(name, labels)``;
look-ups are dict hits on a frozen label key.  Exports:
:meth:`MetricsRegistry.as_dict` (programmatic), :meth:`~MetricsRegistry
.to_json`, and :meth:`~MetricsRegistry.to_prometheus` (the standard
``text/plain; version=0.0.4`` exposition format).
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

LabelKey = Tuple[Tuple[str, str], ...]

#: Default latency buckets (seconds): 50µs .. 2.5s, roughly 1-2.5-5 per
#: decade — wide enough for both a single fused operator and a full
#: 50-view append event.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.00005,
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
)


def _label_key(labels: Mapping[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_value(value: float) -> str:
    """Prometheus-style number formatting (integers without the ``.0``)."""
    if isinstance(value, bool):  # bools are ints; never wanted here
        value = int(value)
    if isinstance(value, int) or (isinstance(value, float) and value.is_integer()):
        return str(int(value))
    return repr(float(value))


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        self.value += amount

    def as_dict(self) -> Any:
        return self.value


class Gauge:
    """A value that can go up and down; ``set`` overwrites."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount

    def as_dict(self) -> Any:
        return self.value


class Histogram:
    """A fixed-bucket histogram (cumulative on export, like Prometheus).

    ``bucket_counts[i]`` counts observations ``<= bounds[i]``
    *non*-cumulatively in memory; the ``+Inf`` overflow bucket is
    ``bucket_counts[-1]``.  Export cumulates.
    """

    __slots__ = ("bounds", "bucket_counts", "sum", "count")
    kind = "histogram"

    def __init__(self, buckets: Sequence[float]) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        self.bounds = bounds
        self.bucket_counts: List[int] = [0] * (len(bounds) + 1)
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> List[int]:
        """Cumulative counts per bound, ending with the +Inf total."""
        totals, running = [], 0
        for n in self.bucket_counts:
            running += n
            totals.append(running)
        return totals

    def quantile(self, q: float) -> float:
        """Approximate q-quantile (upper bound of the containing bucket)."""
        if not 0 <= q <= 1:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        running = 0
        for bound, n in zip(self.bounds, self.bucket_counts):
            running += n
            if running >= rank:
                return bound
        return float("inf")

    def as_dict(self) -> Any:
        return {
            "buckets": dict(zip(self.bounds, self.cumulative())),
            "sum": self.sum,
            "count": self.count,
        }


class MetricsRegistry:
    """Lazily created, labelled instruments with three export formats."""

    def __init__(self) -> None:
        # name -> (kind, help, {label_key: instrument}); kept insertion-
        # ordered for stable exports, series sorted at export time.
        self._families: "Dict[str, Tuple[str, str, Dict[LabelKey, Any]]]" = {}

    # -- instrument acquisition ---------------------------------------------------

    def _family(self, name: str, kind: str, help: str) -> Dict[LabelKey, Any]:
        family = self._families.get(name)
        if family is None:
            family = (kind, help, {})
            self._families[name] = family
        elif family[0] != kind:
            raise ValueError(
                f"metric {name!r} already registered as a {family[0]}, "
                f"not a {kind}"
            )
        return family[2]

    def counter(self, name: str, help: str = "", **labels: Any) -> Counter:
        series = self._family(name, "counter", help)
        key = _label_key(labels)
        instrument = series.get(key)
        if instrument is None:
            instrument = series[key] = Counter()
        return instrument

    def gauge(self, name: str, help: str = "", **labels: Any) -> Gauge:
        series = self._family(name, "gauge", help)
        key = _label_key(labels)
        instrument = series.get(key)
        if instrument is None:
            instrument = series[key] = Gauge()
        return instrument

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        help: str = "",
        **labels: Any,
    ) -> Histogram:
        series = self._family(name, "histogram", help)
        key = _label_key(labels)
        instrument = series.get(key)
        if instrument is None:
            instrument = series[key] = Histogram(
                buckets if buckets is not None else DEFAULT_LATENCY_BUCKETS
            )
        return instrument

    # -- convenience write paths ---------------------------------------------------

    def inc(self, name: str, amount: float = 1, **labels: Any) -> None:
        self.counter(name, **labels).inc(amount)

    def set(self, name: str, value: float, **labels: Any) -> None:
        self.gauge(name, **labels).set(value)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        self.histogram(name, **labels).observe(value)

    # -- reads / exports ----------------------------------------------------------

    def value(self, name: str, **labels: Any) -> Any:
        """Current value of one series (None when it does not exist)."""
        family = self._families.get(name)
        if family is None:
            return None
        instrument = family[2].get(_label_key(labels))
        return None if instrument is None else instrument.as_dict()

    def series(self, name: str) -> List[Tuple[Dict[str, str], Any]]:
        """``(labels, instrument)`` pairs of one family (empty if absent).

        The live instruments are returned, not copies — the health
        evaluator uses this to merge histogram series and read gauges
        without round-tripping through the export formats.
        """
        family = self._families.get(name)
        if family is None:
            return []
        return [(dict(key), instrument) for key, instrument in family[2].items()]

    def merged_histogram(self, name: str) -> Optional[Histogram]:
        """All of one histogram family's series merged into one.

        Series share bucket bounds when they were created through the
        same convenience path (the default buckets), which holds for
        every histogram this library emits; series with different
        bounds are skipped rather than mis-merged.  Returns ``None``
        when the family is absent or empty.
        """
        merged: Optional[Histogram] = None
        for _, instrument in self.series(name):
            if not isinstance(instrument, Histogram):
                return None
            if merged is None:
                merged = Histogram(instrument.bounds)
            elif merged.bounds != instrument.bounds:
                continue
            for index, count in enumerate(instrument.bucket_counts):
                merged.bucket_counts[index] += count
            merged.sum += instrument.sum
            merged.count += instrument.count
        return merged

    def reset(self) -> None:
        """Drop every instrument (tests and benchmark phases)."""
        self._families.clear()

    def as_dict(self) -> Dict[str, Any]:
        """``{name: {"type", "help", "series": {label-string: value}}}``."""
        out: Dict[str, Any] = {}
        for name, (kind, help, series) in sorted(self._families.items()):
            out[name] = {
                "type": kind,
                "help": help,
                "series": {
                    ",".join(f"{k}={v}" for k, v in key) or "": instrument.as_dict()
                    for key, instrument in sorted(series.items())
                },
            }
        return out

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for name, (kind, help, series) in sorted(self._families.items()):
            if help:
                lines.append(f"# HELP {name} {help}")
            lines.append(f"# TYPE {name} {kind}")
            for key, instrument in sorted(series.items()):
                if kind == "histogram":
                    totals = instrument.cumulative()
                    for bound, total in zip(instrument.bounds, totals):
                        lines.append(
                            f"{name}_bucket{{{_render_labels(key, ('le', _format_value(bound)))}}} {total}"
                        )
                    lines.append(
                        f"{name}_bucket{{{_render_labels(key, ('le', '+Inf'))}}} {totals[-1]}"
                    )
                    base = _render_labels(key)
                    suffix = f"{{{base}}}" if base else ""
                    lines.append(f"{name}_sum{suffix} {_format_value(instrument.sum)}")
                    lines.append(f"{name}_count{suffix} {instrument.count}")
                else:
                    base = _render_labels(key)
                    suffix = f"{{{base}}}" if base else ""
                    lines.append(f"{name}{suffix} {_format_value(instrument.value)}")
        return "\n".join(lines) + ("\n" if lines else "")


def _render_labels(key: LabelKey, extra: Optional[Tuple[str, str]] = None) -> str:
    pairs: Iterable[Tuple[str, str]] = key if extra is None else tuple(key) + (extra,)
    return ",".join(f'{k}="{v}"' for k, v in pairs)
