"""Empirical IM-class conformance: certify the paper's cost claims live.

:mod:`repro.algebra.classify` *asserts* a view's incremental-maintenance
class from its operator tree (Theorem 4.5); the observability tracer
*records* what each append actually cost.  This module closes the loop:
it drives controlled scaling sweeps against a registered view — growing
the chronicle (|C|), the referenced relations (|R|), and the update
batch size (u) — measures the view's per-append ``maintain``-span cost
through the tracer's thread-local
:meth:`~repro.complexity.counters.CostCounters.scope` diffs, fits the
measured curves with :mod:`repro.complexity.fitting`, and emits a
**conformance certificate**: the claimed class next to the empirically
fitted one, with slope and R², and a pass/fail verdict per sweep.

The headline check is the empirical twin of the auditor's
``chronicle_read == 0`` rule: *no* view's per-append cost may grow with
|C| (Theorem 4.2's independence claim).  A view that violates it — like
the deliberately planted chronicle-product expression
:func:`certify_expression` exists to measure — is flagged
non-conformant even though its wall-clock might look fine at small
scale.

Cost measure
------------
"Work" is the sum of all cost-counter events **except** ``index_probe``
and ``index_lookup``: the paper's complexity classes are stated modulo
the O(log |V|) locate step, and probes legitimately grow with the
swept-up view state.  Probes are fitted separately where the class
bounds them (IM-Constant forbids growth; IM-log(R) allows log growth in
|R|).  The measures themselves (``span_work`` / ``span_probes``) live in
:mod:`repro.obs.costmodel` — shared with the live cost ledger — and are
re-exported here.

One drive loop (:func:`drive`) takes every measurement of a registered
view: each sweep point here, and the window ``EXPLAIN ANALYZE``
(:mod:`repro.obs.explain`) measures.  One sweep loop turns the points
into verdicts, for the profiler and for :func:`certify_expression`
alike.

Certificates are JSON-ready (:meth:`ConformanceCertificate.to_dict`)
and are published on the installed observability handle's
``certificates`` dict, where the ``/certificates`` HTTP route
(:mod:`repro.obs.exporters`) serves them.
"""

from __future__ import annotations

import itertools
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..algebra.classify import IMClass, Language, classify
from ..algebra.reference import propagate
from ..complexity.counters import GLOBAL_COUNTERS
from ..complexity.fitting import classify_growth, median
from ..core.delta import Delta
from ..errors import ConformanceError, ObservabilityError
from ..relational.schema import Schema
from . import runtime
from .core import Observability
from .costmodel import span_probes, span_work
from .tracer import Span

__all__ = [
    "ConformanceCertificate",
    "ConformanceProfiler",
    "SweepVerdict",
    "certify_expression",
    "schema_record_factory",
    "span_probes",
    "span_work",
]

RecordFactory = Callable[[int], Dict[str, Any]]
#: One measured append: (work, probes, seconds).
Sample = Tuple[float, float, float]

#: Default sweep sizes (appended records / relation rows / batch sizes).
DEFAULT_C_SIZES: Tuple[int, ...] = (256, 1_024, 4_096)
DEFAULT_R_SIZES: Tuple[int, ...] = (256, 1_024, 4_096)
DEFAULT_U_SIZES: Tuple[int, ...] = (1, 4, 16)

#: Acceptable fitted models per sweep, keyed by (parameter, metric,
#: claimed class).  ``None`` means the class places no bound (the sweep
#: is still recorded, and always passes).
_R_WORK_EXPECTED = {
    IMClass.CONSTANT: ("constant",),
    IMClass.LOG_R: ("constant",),
    IMClass.POLY_R: None,
    IMClass.POLY_C: None,
}
_R_PROBE_EXPECTED = {
    IMClass.CONSTANT: ("constant",),
    IMClass.LOG_R: ("constant", "log"),
    IMClass.POLY_R: None,
    IMClass.POLY_C: None,
}
#: Per-event cost may grow at most linearly in the batch size u.
_U_EXPECTED = ("constant", "log", "linear")


def schema_record_factory(
    schema: Schema, keyspace: int = 64, unique_ints: bool = False
) -> RecordFactory:
    """A default record synthesizer for a chronicle or relation schema.

    INT attributes cycle through ``keyspace`` values (or count up when
    *unique_ints* — relation keys must be unique), STR attributes cycle
    a small alphabet, FLOAT/BOOL follow suit.  Good enough for sweeps;
    pass an explicit factory (e.g. a :mod:`repro.workloads` generator)
    when the view's predicates need realistic records.
    """
    fields: List[Tuple[str, str]] = [
        (attr.name, attr.domain.name)
        for attr in schema
        if attr.name != schema.sequence_attribute
    ]

    def factory(index: int) -> Dict[str, Any]:
        record: Dict[str, Any] = {}
        for name, domain in fields:
            if domain == "INT" or domain == "SEQ":
                record[name] = index if unique_ints else index % keyspace
            elif domain == "FLOAT":
                record[name] = float(index % keyspace)
            elif domain == "BOOL":
                record[name] = bool(index % 2)
            else:  # STR and anything exotic
                record[name] = f"s{index % 8}"
        return record

    return factory


class SweepVerdict:
    """One fitted scaling curve and its pass/fail outcome."""

    __slots__ = (
        "parameter",
        "metric",
        "xs",
        "ys",
        "seconds",
        "model",
        "slope",
        "r_squared",
        "expected",
        "passed",
    )

    def __init__(
        self,
        parameter: str,
        metric: str,
        xs: Sequence[float],
        ys: Sequence[float],
        seconds: Sequence[float],
        expected: Optional[Tuple[str, ...]],
    ) -> None:
        self.parameter = parameter
        self.metric = metric
        self.xs = list(xs)
        self.ys = list(ys)
        self.seconds = list(seconds)
        growth = classify_growth(xs, ys)
        self.model = growth.model
        self.slope = growth.fit.slope
        self.r_squared = growth.fit.r_squared
        self.expected = tuple(expected) if expected is not None else None
        self.passed = self.expected is None or self.model in self.expected

    def to_dict(self) -> Dict[str, Any]:
        return {
            "parameter": self.parameter,
            "metric": self.metric,
            "xs": self.xs,
            "ys": self.ys,
            "seconds": self.seconds,
            "model": self.model,
            "slope": self.slope,
            "r_squared": self.r_squared,
            "expected": list(self.expected) if self.expected is not None else None,
            "passed": self.passed,
        }

    def describe(self) -> str:
        expected = (
            "unconstrained"
            if self.expected is None
            else "expected {" + ", ".join(self.expected) + "}"
        )
        return (
            f"{self.parameter} {self.metric}: fitted {self.model} "
            f"(slope {self.slope:.4g}, R²={self.r_squared:.3f}) {expected} "
            f"→ {'PASS' if self.passed else 'FAIL'}"
        )

    def __repr__(self) -> str:
        return f"SweepVerdict({self.describe()})"


class ConformanceCertificate:
    """Claimed vs measured complexity class for one view."""

    __slots__ = ("view", "language", "claimed", "engine", "sweeps", "samples")

    def __init__(
        self,
        view: str,
        language: Language,
        claimed: IMClass,
        engine: str,
        sweeps: Sequence[SweepVerdict],
        samples: int,
    ) -> None:
        self.view = view
        self.language = language
        self.claimed = claimed
        self.engine = engine
        self.sweeps = list(sweeps)
        self.samples = samples

    @property
    def conformant(self) -> bool:
        return all(sweep.passed for sweep in self.sweeps)

    def failures(self) -> List[SweepVerdict]:
        return [sweep for sweep in self.sweeps if not sweep.passed]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "view": self.view,
            "language": self.language.value,
            "claimed_class": self.claimed.value,
            "engine": self.engine,
            "samples": self.samples,
            "sweeps": [sweep.to_dict() for sweep in self.sweeps],
            "conformant": self.conformant,
        }

    def format(self) -> str:
        lines = [
            f"conformance certificate: view {self.view!r}",
            f"  claimed: {self.language.value} → {self.claimed.value} "
            f"(engine {self.engine}, median of {self.samples} samples/point)",
        ]
        for sweep in self.sweeps:
            lines.append(f"  {sweep.describe()}")
        lines.append(
            f"  verdict: {'CONFORMANT' if self.conformant else 'NON-CONFORMANT'}"
        )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"ConformanceCertificate({self.view!r}, {self.claimed.value}, "
            f"{'conformant' if self.conformant else 'NON-CONFORMANT'})"
        )


def drive(
    db: Any,
    obs: Observability,
    chronicle: str,
    view: str,
    records: Iterator[Dict[str, Any]],
    batch: int,
    appends: int,
) -> List[List[Span]]:
    """The one measurement window: a warm-up append, then *appends* more.

    Each append carries the next *batch* of *records* through the
    database's normal write path with the private handle *obs*
    installed (the database's own handle is suspended meanwhile).  The
    warm-up absorbs first-touch effects (lazy plan compilation, new
    group rows) and is not measured.  For each measured append the
    result holds every ``maintain`` span of *view* in the traces that
    finished during it — the ``append`` root and a sharded database's
    ``shard_apply`` roots — so a partitioned view is measured on every
    shard its records reach.  The profiler's sweeps and ``EXPLAIN
    ANALYZE`` both measure here.

    A view partitioned across ``executor="process"`` workers cannot be
    measured: the workers send no spans back.  It raises
    :class:`~repro.errors.ObservabilityError` before any append.
    """
    if view in db.partitioned_views and db.config.executor == "process":
        raise ObservabilityError(
            f"view {view!r} is maintained in worker processes "
            f"(executor='process'), which report no maintain spans; measure "
            f"it on a database with executor='serial', which runs the same "
            f"fold in-process"
        )
    tracer = obs.tracer

    def append() -> None:
        db.append(chronicle, list(itertools.islice(records, batch)))

    measured: List[List[Span]] = []
    with runtime.installed(obs):
        append()
        for _ in range(appends):
            before = tracer.completed_count
            append()
            measured.append(
                [
                    span
                    for trace in tracer.traces(tracer.completed_count - before)
                    for span in trace.find("maintain")
                    if span.attrs.get("view") == view
                ]
            )
    return measured


def _sweep(
    parameter: str,
    sizes: Sequence[int],
    measure: Callable[[int], List[Sample]],
    expected: Dict[str, Optional[Tuple[str, ...]]],
    grow: Optional[Callable[[int], None]] = None,
    x: Optional[Callable[[int], float]] = None,
) -> List[SweepVerdict]:
    """One scaling sweep: a :class:`SweepVerdict` per metric in *expected*.

    At each size ``grow(size)`` brings the swept quantity up to it
    (setup, not measured), ``measure(size)`` returns one
    (work, probes, seconds) sample per measured append, and the point's
    coordinate is ``x(size)`` read after measuring (default: the size).
    The curves are fitted on the per-point medians.
    """
    xs: List[float] = []
    series: Dict[str, List[float]] = {"work": [], "probes": [], "seconds": []}
    for size in sizes:
        if grow is not None:
            grow(size)
        samples = measure(size)
        xs.append(float(x(size) if x is not None else size))
        for values, column in zip(series.values(), zip(*samples)):
            values.append(median(column))
    return [
        SweepVerdict(parameter, metric, xs, series[metric], series["seconds"], bound)
        for metric, bound in expected.items()
    ]


class ConformanceProfiler:
    """Runs scaling sweeps against a database's registered views.

    Parameters
    ----------
    database:
        The :class:`~repro.core.database.ChronicleDatabase` owning the
        views.  Sweeps append real records through the full maintenance
        pipeline — run the profiler against a scratch database, not a
        production one (the appended drive records stay in the views).
    samples:
        Measured appends per sweep point; the median is fitted, so a
        stray expensive append cannot tilt the curve.
    observability:
        Measurement handle.  Defaults to a private view-level tracer
        (``audit="off"``) that is installed only around the measured
        appends, so profiling neither pollutes the user's metrics nor
        inherits a disabled/absent handle.
    """

    def __init__(
        self,
        database: Any,
        samples: int = 5,
        observability: Optional[Observability] = None,
    ) -> None:
        if samples < 1:
            raise ValueError("samples must be >= 1")
        self.db = database
        self.samples = samples
        self._obs = (
            observability
            if observability is not None
            else Observability(trace_operators=False, audit="off")
        )
        #: Drive-record indices, shared by every sweep of every view.
        self._index = itertools.count()

    # -- public API ----------------------------------------------------------------

    def certify(
        self,
        name: str,
        chronicle: Optional[str] = None,
        record_factory: Optional[RecordFactory] = None,
        relation_factories: Optional[Dict[str, RecordFactory]] = None,
        c_sizes: Sequence[int] = DEFAULT_C_SIZES,
        r_sizes: Optional[Sequence[int]] = None,
        u_sizes: Optional[Sequence[int]] = DEFAULT_U_SIZES,
    ) -> ConformanceCertificate:
        """Certify one registered view; returns (and publishes) the result.

        *chronicle* selects the driver chronicle (default: the first one
        the view depends on); *record_factory* produces its drive
        records (default: synthesized from the schema — must pass the
        view's prefilter, or the sweep raises
        :class:`~repro.errors.ConformanceError`).  ``r_sizes`` defaults
        to :data:`DEFAULT_R_SIZES` when the view references relations
        and is skipped otherwise; pass ``u_sizes=None`` to skip the
        batch-size sweep.
        """
        view = self.db.view(name)
        driver = chronicle if chronicle is not None else view.chronicle_names()[0]
        driver_chronicle = self.db.chronicle(driver)
        records = map(
            record_factory
            if record_factory is not None
            else schema_record_factory(driver_chronicle.schema),
            self._index,
        )

        def grow_chronicle(size: int) -> None:
            # Setup, not measurement: observability suspended and counters
            # off, but every record still flows through full view
            # maintenance, so the views' states track the stream honestly.
            with runtime.suspended(), GLOBAL_COUNTERS.disabled():
                for _ in range(size - driver_chronicle.appended_count):
                    self.db.append(driver, next(records))

        def measure(batch: int) -> List[Sample]:
            return self._samples(name, driver, records, batch)

        relations = list({r.name: r for r in view.expression.relations()}.values())
        factories = relation_factories or {}

        def grow_relations(size: int) -> None:
            with runtime.suspended(), GLOBAL_COUNTERS.disabled():
                for relation in relations:
                    factory = factories.get(
                        relation.name,
                        schema_record_factory(relation.schema, unique_ints=True),
                    )
                    while len(relation) < size:
                        relation.insert(factory(len(relation)))

        sweeps = _sweep(
            "|C|",
            c_sizes,
            lambda size: measure(1),
            {"work": ("constant",)},
            grow=grow_chronicle,
            x=lambda size: max(size, driver_chronicle.appended_count),
        )
        if relations:
            sweeps += _sweep(
                "|R|",
                r_sizes if r_sizes is not None else DEFAULT_R_SIZES,
                lambda size: measure(1),
                {
                    "work": _R_WORK_EXPECTED[view.im_class],
                    "probes": _R_PROBE_EXPECTED[view.im_class],
                },
                grow=grow_relations,
            )
        if u_sizes is not None:
            sweeps += _sweep("u", u_sizes, measure, {"work": _U_EXPECTED})
        certificate = ConformanceCertificate(
            view=name,
            language=view.language,
            claimed=view.im_class,
            engine="compiled",
            sweeps=sweeps,
            samples=self.samples,
        )
        self._publish(certificate)
        return certificate

    def certify_all(self, **kwargs: Any) -> Dict[str, ConformanceCertificate]:
        """Certify every registered persistent view (shared kwargs)."""
        return {
            view.name: self.certify(view.name, **kwargs)
            for view in list(self.db.registry.views())
        }

    # -- measurement mechanics -----------------------------------------------------

    def _samples(
        self, view: str, driver: str, records: Iterator[Dict[str, Any]], batch: int
    ) -> List[Sample]:
        """One (work, probes, seconds) per measured append of :func:`drive`.

        Each sample sums the view's ``maintain`` spans of its append, so
        a partitioned view costs what all its shards did.
        """
        samples: List[Sample] = []
        for spans in drive(self.db, self._obs, driver, view, records, batch, self.samples):
            if not spans:
                raise ConformanceError(
                    f"no maintenance span for view {view!r} in a measured "
                    f"append — the drive records may not pass the view's "
                    f"prefilter (supply record_factory), or the view does "
                    f"not depend on the driver chronicle"
                )
            samples.append(
                (
                    float(sum(span_work(span.counters) for span in spans)),
                    float(sum(span_probes(span.counters) for span in spans)),
                    sum(span.duration for span in spans),
                )
            )
        return samples

    def _publish(self, certificate: ConformanceCertificate) -> None:
        """Publish to the database's handle (and the active one, if other)."""
        targets = []
        db_obs = getattr(self.db, "observability", None)
        if db_obs is not None:
            targets.append(db_obs)
        active = runtime.get()
        if active is not None and active not in targets:
            targets.append(active)
        for obs in targets:
            obs.certificates[certificate.view] = certificate.to_dict()


def certify_expression(
    expression: Any,
    group: Any,
    driver: Any,
    grow: Optional[Any] = None,
    record_factory: Optional[RecordFactory] = None,
    grow_factory: Optional[RecordFactory] = None,
    sizes: Sequence[int] = DEFAULT_C_SIZES,
    samples: int = 3,
    allow_chronicle_access: bool = True,
    name: Optional[str] = None,
) -> ConformanceCertificate:
    """Certify a raw operator tree's |C|-independence (no registration).

    Expressions outside CA — :class:`~repro.algebra.ast.ChronicleProduct`
    and friends — cannot become :class:`PersistentView`\\ s (the
    constructor refuses them, Theorem 4.3), so the registry path above
    can never measure them.  This function drives their delta step
    directly, through the reference rules of
    :mod:`repro.algebra.reference` (the compiled step of an extension
    operator only raises): *grow* (default: *driver*) is the chronicle whose stored
    history is swept, *driver* receives the per-sample append whose delta
    is propagated through *expression* under a thread-local counter
    scope.  The |C| sweep's expectation is always ``constant`` — the
    paper's contract — so a planted C×C view comes back NON-CONFORMANT
    with a fitted linear (or worse) model, the empirical face of
    Theorem 4.3(2).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    grow = grow if grow is not None else driver
    record_factory = (
        record_factory
        if record_factory is not None
        else schema_record_factory(driver.schema)
    )
    grow_factory = (
        grow_factory if grow_factory is not None else schema_record_factory(grow.schema)
    )
    index = itertools.count(1)

    def grow_to(size: int) -> None:
        with GLOBAL_COUNTERS.disabled():
            while grow.appended_count < size:
                group.append(grow, grow_factory(next(index)))

    def measure(size: int) -> List[Sample]:
        out: List[Sample] = []
        for _ in range(samples):
            rows = group.append(driver, record_factory(next(index)))
            deltas = {driver.name: Delta(driver.schema, rows)}
            start = time.perf_counter()
            with GLOBAL_COUNTERS.scope() as cost:
                propagate(
                    expression, deltas, allow_chronicle_access=allow_chronicle_access
                )
            seconds = time.perf_counter() - start
            out.append(
                (float(span_work(cost.counts)), float(span_probes(cost.counts)), seconds)
            )
        return out

    sweeps = _sweep(
        "|C|",
        sizes,
        measure,
        {"work": ("constant",)},
        grow=grow_to,
        x=lambda size: grow.appended_count,
    )
    classification = classify(expression)
    return ConformanceCertificate(
        view=name if name is not None else f"<{type(expression).__name__}>",
        language=classification.language,
        claimed=classification.im_class,
        engine="reference",
        sweeps=sweeps,
        samples=samples,
    )
