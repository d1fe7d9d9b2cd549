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

Certificates are JSON-ready (:meth:`ConformanceCertificate.to_dict`)
and are published on the installed observability handle's
``certificates`` dict, where the ``/certificates`` HTTP route
(:mod:`repro.obs.exporters`) serves them.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..algebra.classify import IMClass, Language, classify
from ..algebra.reference import propagate
from ..complexity.counters import GLOBAL_COUNTERS
from ..complexity.fitting import classify_growth, median
from ..core.delta import Delta
from ..errors import ConformanceError
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
        self._next_record = 0

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
        factory = (
            record_factory
            if record_factory is not None
            else schema_record_factory(driver_chronicle.schema)
        )
        sweeps: List[SweepVerdict] = [
            self._sweep_chronicle(view, driver, driver_chronicle, factory, c_sizes)
        ]
        relations = self._relations_of(view)
        if relations:
            if r_sizes is None:
                r_sizes = DEFAULT_R_SIZES
            sweeps.extend(
                self._sweep_relations(
                    view, driver, factory, relations, relation_factories or {}, r_sizes
                )
            )
        if u_sizes is not None:
            sweeps.append(self._sweep_batch(view, driver, factory, u_sizes))
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

    # -- sweep drivers -------------------------------------------------------------

    @staticmethod
    def _relations_of(view: Any) -> List[Any]:
        """The distinct relations the view's expression references."""
        return list({r.name: r for r in view.expression.relations()}.values())

    def _sweep_chronicle(
        self,
        view: Any,
        driver: str,
        driver_chronicle: Any,
        factory: RecordFactory,
        sizes: Sequence[int],
    ) -> SweepVerdict:
        xs: List[float] = []
        works: List[float] = []
        seconds: List[float] = []
        for size in sizes:
            self._grow_chronicle(driver, driver_chronicle, factory, size)
            work, _, secs = self._measure(view, driver, factory, batch=1)
            xs.append(float(max(size, driver_chronicle.appended_count)))
            works.append(work)
            seconds.append(secs)
        return SweepVerdict("|C|", "work", xs, works, seconds, ("constant",))

    def _sweep_relations(
        self,
        view: Any,
        driver: str,
        factory: RecordFactory,
        relations: List[Any],
        relation_factories: Dict[str, RecordFactory],
        sizes: Sequence[int],
    ) -> List[SweepVerdict]:
        xs: List[float] = []
        works: List[float] = []
        probes: List[float] = []
        seconds: List[float] = []
        for size in sizes:
            for relation in relations:
                grow = relation_factories.get(
                    relation.name,
                    schema_record_factory(relation.schema, unique_ints=True),
                )
                self._grow_relation(relation, grow, size)
            work, probe, secs = self._measure(view, driver, factory, batch=1)
            xs.append(float(size))
            works.append(work)
            probes.append(probe)
            seconds.append(secs)
        claimed = view.im_class
        return [
            SweepVerdict("|R|", "work", xs, works, seconds, _R_WORK_EXPECTED[claimed]),
            SweepVerdict(
                "|R|", "probes", xs, probes, seconds, _R_PROBE_EXPECTED[claimed]
            ),
        ]

    def _sweep_batch(
        self, view: Any, driver: str, factory: RecordFactory, sizes: Sequence[int]
    ) -> SweepVerdict:
        xs: List[float] = []
        works: List[float] = []
        seconds: List[float] = []
        for size in sizes:
            work, _, secs = self._measure(view, driver, factory, batch=size)
            xs.append(float(size))
            works.append(work)
            seconds.append(secs)
        return SweepVerdict("u", "work", xs, works, seconds, _U_EXPECTED)

    # -- measurement mechanics -----------------------------------------------------

    def _records(self, factory: RecordFactory, count: int) -> List[Dict[str, Any]]:
        start = self._next_record
        self._next_record += count
        return [factory(start + i) for i in range(count)]

    def _grow_chronicle(
        self, driver: str, driver_chronicle: Any, factory: RecordFactory, size: int
    ) -> None:
        """Append drive records until the chronicle has seen *size* of them.

        Preloading runs with observability suspended and counters off —
        it is setup, not measurement — but every record still flows
        through full view maintenance, so the views' states track the
        stream honestly.
        """
        missing = size - driver_chronicle.appended_count
        if missing <= 0:
            return
        with runtime.suspended(), GLOBAL_COUNTERS.disabled():
            for record in self._records(factory, missing):
                self.db.append(driver, record)

    def _grow_relation(self, relation: Any, factory: RecordFactory, size: int) -> None:
        with runtime.suspended(), GLOBAL_COUNTERS.disabled():
            while len(relation) < size:
                relation.insert(factory(len(relation)))

    def _measure(
        self, view: Any, driver: str, factory: RecordFactory, batch: int
    ) -> Tuple[float, float, float]:
        """Median (work, probes, seconds) of the view's maintain span."""
        works: List[float] = []
        probes: List[float] = []
        seconds: List[float] = []
        with runtime.installed(self._obs):
            # One unmeasured warm-up append so first-touch effects (new
            # group rows, lazy plan compilation) don't skew the samples.
            self.db.append(driver, self._records(factory, batch))
            for _ in range(self.samples):
                self.db.append(driver, self._records(factory, batch))
                span = self._maintain_span(view.name)
                works.append(float(span_work(span.counters)))
                probes.append(float(span_probes(span.counters)))
                seconds.append(span.duration)
        return median(works), median(probes), median(seconds)

    def _maintain_span(self, view_name: str) -> Span:
        trace = self._obs.tracer.last()
        if trace is not None:
            for span in trace.find("maintain"):
                if span.attrs.get("view") == view_name:
                    return span
        raise ConformanceError(
            f"no maintenance span for view {view_name!r} in the last append "
            f"trace — the drive records may not pass the view's prefilter "
            f"(supply record_factory), or the view does not depend on the "
            f"driver chronicle"
        )

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
    classification = classify(expression)
    next_record = [0]

    def _next(factory: RecordFactory) -> Dict[str, Any]:
        next_record[0] += 1
        return factory(next_record[0])

    xs: List[float] = []
    works: List[float] = []
    seconds: List[float] = []
    for size in sizes:
        with GLOBAL_COUNTERS.disabled():
            while grow.appended_count < size:
                group.append(grow, _next(grow_factory))
        sample_works: List[float] = []
        sample_seconds: List[float] = []
        for _ in range(samples):
            rows = group.append(driver, _next(record_factory))
            deltas = {driver.name: Delta(driver.schema, rows)}
            start = time.perf_counter()
            with GLOBAL_COUNTERS.scope() as cost:
                propagate(
                    expression, deltas, allow_chronicle_access=allow_chronicle_access
                )
            sample_seconds.append(time.perf_counter() - start)
            sample_works.append(float(span_work(cost.counts)))
        xs.append(float(grow.appended_count))
        works.append(median(sample_works))
        seconds.append(median(sample_seconds))
    sweep = SweepVerdict("|C|", "work", xs, works, seconds, ("constant",))
    return ConformanceCertificate(
        view=name if name is not None else f"<{type(expression).__name__}>",
        language=classification.language,
        claimed=classification.im_class,
        engine="reference",
        sweeps=[sweep],
        samples=samples,
    )
