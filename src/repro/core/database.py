"""The chronicle database: the quadruple (C, R, L, V) of Definition 2.1.

:class:`ChronicleDatabase` is the user-facing façade assembling the whole
system:

* **C** — chronicles, organized into chronicle groups with shared
  sequence-number domains;
* **R** — relations, wrapped in :class:`~repro.relational.versioned
  .VersionedRelation` so that only proactive updates are possible
  (Section 2.3);
* **L** — the view-definition language: either the SQL-like text language
  (:mod:`repro.query`) or programmatic :class:`~repro.sca.summarize
  .Summary` objects;
* **V** — persistent views, maintained through the
  :class:`~repro.views.registry.ViewRegistry` (with affected-view
  filtering) on every append.

Typical use::

    db = ChronicleDatabase()
    db.create_chronicle("flights", [("acct", "INT"), ("miles", "INT")])
    db.create_relation("customers", [("acct", "INT"), ("name", "STR")], key=["acct"])
    db.define_view(\"\"\"
        DEFINE VIEW balance AS
        SELECT acct, SUM(miles) AS balance FROM flights GROUP BY acct
    \"\"\")
    db.append("flights", {"acct": 7, "miles": 250})
    db.view("balance").value((7,), "balance")
"""

from __future__ import annotations

import warnings
import weakref
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from ..aggregates.registry import default_registry
from ..errors import ChronicleGroupError, ObservabilityError, ViewRegistrationError
from ..obs import Observability
from ..query.compiler import Catalog, Compiler
from ..relational.schema import Schema
from ..relational.tuples import Row
from ..relational.versioned import VersionedRelation
from ..sca.summarize import Summary
from ..sca.view import PersistentView
from ..views.periodic import PeriodicViewSet
from ..views.registry import ViewRegistry
from .chronicle import Chronicle, RowValues
from .config import DatabaseConfig
from .group import ChronicleGroup
from .sequence import ChrononMapper, SequenceNumber

DEFAULT_GROUP = "default"


class ChronicleDatabase:
    """A chronicle database system (C, R, L, V).

    Parameters
    ----------
    config:
        A :class:`~repro.core.config.DatabaseConfig`.  With
        ``engine="sharded"`` the database holds a
        :class:`~repro.parallel.engine.ShardEngine` and fans maintenance
        of partitionable views out to its shards; admission, the write
        methods and every other method are the same either way.
    observability:
        Install a pre-configured :class:`~repro.obs.Observability`
        (implies ``config.observe``).  Note the runtime slot is
        process-wide, like ``GLOBAL_COUNTERS``: the installed instance
        observes every database in the process.
    """

    def __init__(
        self,
        config: Optional[DatabaseConfig] = None,
        *,
        observability: Optional[Observability] = None,
    ) -> None:
        if config is None:
            config = DatabaseConfig()
        #: The database's immutable configuration.
        self.config = config
        self.groups: Dict[str, ChronicleGroup] = {}
        self.relations: Dict[str, VersionedRelation] = {}
        self.registry = ViewRegistry()
        self.aggregates = (
            config.aggregates if config.aggregates is not None else default_registry()
        )
        self._chronicle_group: Dict[str, str] = {}  # chronicle name -> group name
        self._observability: Optional[Observability] = None
        self._exporter_finalizer: Optional[weakref.finalize] = None
        if observability is not None or config.observe:
            self.enable_observability(observability)
        #: The durability manager (None when ``config.durability`` is off —
        #: the hot path then carries no durability hooks at all).
        self._durability: Optional[Any] = None
        if config.durability is not None and config.durability.mode != "off":
            from ..storage.durability import DurabilityManager

            self._durability = DurabilityManager(self, config.durability)
        #: The sharded engine's fan-out stage (None on the serial engine).
        self._shards: Optional[Any] = None
        if config.engine == "sharded":
            from ..parallel.engine import ShardEngine

            self._shards = ShardEngine(config)

    # -- observability --------------------------------------------------------------

    @property
    def observability(self) -> Optional[Observability]:
        """The database's observability handle (None when never enabled)."""
        return self._observability

    def enable_observability(
        self, obs: Optional[Observability] = None, install: bool = True, **config: Any
    ) -> Observability:
        """Install (or re-install) observability for this database.

        *obs* is an existing :class:`~repro.obs.Observability`; with
        ``None`` one is built from *config* (``trace_operators``,
        ``audit``, ``ring``, ``slo``, ``incident_dir``) — or the
        previously enabled handle is re-installed when no config is
        given.  With ``install=False`` the handle is attached to the
        database but not published to the process-wide runtime slot
        (callers then scope it themselves with
        :func:`repro.obs.runtime.installed` — the CLI does this per
        statement).
        """
        if obs is None:
            if self._observability is not None and not config:
                obs = self._observability
            else:
                config.setdefault("audit", self.config.audit_mode)
                config.setdefault("slo", self.config.slo)
                obs = Observability(**config)
        obs.bind_database(self)
        self._observability = obs
        return obs.install() if install else obs

    def disable_observability(self) -> None:
        """Withdraw this database's observability (keeps the handle)."""
        if self._observability is not None:
            self._observability.uninstall()

    def certify_view(self, name: str, samples: int = 5, **sweep: Any) -> Any:
        """Run a conformance sweep against one registered view.

        Builds a :class:`~repro.obs.conformance.ConformanceProfiler`,
        drives the scaling sweeps (which **append drive records** to the
        view's chronicle — use a scratch database), and returns the
        :class:`~repro.obs.conformance.ConformanceCertificate`.  The
        certificate is also published on this database's observability
        handle (when one exists), where the ``/certificates`` HTTP route
        serves it.  Extra keyword arguments go to
        :meth:`~repro.obs.conformance.ConformanceProfiler.certify`
        (``c_sizes``, ``r_sizes``, ``u_sizes``, ``record_factory``, …).
        """
        from ..obs.conformance import ConformanceProfiler

        return ConformanceProfiler(self, samples=samples).certify(name, **sweep)

    def certify_views(self, samples: int = 5, **sweep: Any) -> Dict[str, Any]:
        """Certify every registered view; returns name → certificate."""
        from ..obs.conformance import ConformanceProfiler

        return ConformanceProfiler(self, samples=samples).certify_all(**sweep)

    def explain(self, name: str, analyze: bool = False, **window: Any) -> Any:
        """Describe (and optionally measure) a view's maintenance plan.

        Returns an :class:`~repro.obs.explain.ExplainReport`: the
        compiled plan tree with fusion/sharing/partition/dispatch-key
        annotations.  With *analyze*, a short instrumented window of
        synthesized records is driven through the normal ingest path
        (which **appends drive records** to the view's chronicle — use
        a scratch database when that matters) and every operator is
        annotated with measured rows, wall time, and cost-counter
        work.  Extra keyword arguments go to
        :func:`~repro.obs.explain.explain_analyze` (``events``,
        ``batch``, ``record_factory``, ``chronicle``).
        """
        from ..obs.explain import explain, explain_analyze

        if analyze:
            return explain_analyze(self, name, **window)
        if window:
            raise TypeError(
                "explain() window arguments require analyze=True: "
                + ", ".join(sorted(window))
            )
        return explain(self, name)

    def serve_metrics(self, port: int = 0, host: str = "127.0.0.1") -> Any:
        """Start the live HTTP exporter for this database's observability.

        Enables observability (installing it) if it is not enabled yet,
        then serves ``/metrics`` (Prometheus text), ``/certificates``,
        ``/costs`` and ``/health`` on *port* (0 = ephemeral).
        Returns the :class:`~repro.obs.server.MetricsServer`.

        The exporter's serving thread is tied to this database's
        lifetime: :meth:`close` stops it, and a finalizer stops it if
        the database is garbage-collected while still serving.
        """
        obs = self._observability
        if obs is None:
            obs = self.enable_observability()
        server = obs.serve(port=port, host=host)
        if self._exporter_finalizer is not None:
            self._exporter_finalizer.detach()
        # The finalizer closes over the handle, not self, so it cannot
        # keep the database alive.
        self._exporter_finalizer = weakref.finalize(self, Observability.stop_serving, obs)
        return server

    def close(self) -> None:
        """Release background resources and finalize the log (idempotent).

        With durability on, a final snapshot is taken if batches were
        logged since the last one, the log is fsynced, and the
        durability file is closed — after which new appends are no
        longer logged.  Stops the metrics exporter's
        serving thread if one is running and ends the shard executor's
        worker processes.  The database remains usable for in-process
        work afterwards (a later write respawns workers and reinstalls
        their replicas); use the context-manager form to scope the
        exporter to a block::

            with ChronicleDatabase(...) as db:
                db.serve_metrics(port=0)
                ...
        """
        if self._shards is not None:
            self._shards.close()
        if self._durability is not None:
            self._durability.close()
        if self._exporter_finalizer is not None:
            self._exporter_finalizer.detach()
            self._exporter_finalizer = None
        if self._observability is not None:
            self._observability.stop_serving()

    def __enter__(self) -> "ChronicleDatabase":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- catalog --------------------------------------------------------------------

    def create_group(
        self,
        name: str,
        chronons: Optional[ChrononMapper] = None,
        start: SequenceNumber = 0,
    ) -> ChronicleGroup:
        """Create a chronicle group (a fresh sequence-number domain)."""
        if name in self.groups:
            raise ChronicleGroupError(f"group {name!r} already exists")
        group = ChronicleGroup(name, chronons=chronons, start=start)
        group.subscribe(self.registry.on_event)
        self.groups[name] = group
        if self._durability is not None:
            if chronons is not None:
                from ..storage.durability import NonDurableWarning

                warnings.warn(
                    f"group {name!r} uses a custom chronon mapper; its state "
                    f"is not logged and will reset on recovery",
                    NonDurableWarning,
                    stacklevel=2,
                )
            self._durability.record_ddl(("group", name, start))
        return group

    def group(self, name: str = DEFAULT_GROUP) -> ChronicleGroup:
        """Fetch a group, lazily creating the default group."""
        if name not in self.groups:
            if name == DEFAULT_GROUP:
                return self.create_group(name)
            raise ChronicleGroupError(f"no group named {name!r}")
        return self.groups[name]

    def create_chronicle(
        self,
        name: str,
        schema: Union[Schema, Sequence[Tuple[str, Any]]],
        retention: Optional[int] = None,
        group: str = DEFAULT_GROUP,
    ) -> Chronicle:
        """Create a chronicle in *group* (created on demand)."""
        if name in self._chronicle_group:
            raise ChronicleGroupError(f"chronicle {name!r} already exists")
        if name in self.relations:
            raise ChronicleGroupError(f"{name!r} already names a relation")
        chronicle = self.group(group).create_chronicle(name, schema, retention=retention)
        self._chronicle_group[name] = group
        if self._durability is not None:
            from ..algebra.plan import schema_spec

            self._durability.record_ddl(
                ("chronicle", name, schema_spec(chronicle.schema), retention, group)
            )
        return chronicle

    def chronicle(self, name: str) -> Chronicle:
        """Fetch a chronicle by name."""
        group_name = self._chronicle_group.get(name)
        if group_name is None:
            raise ChronicleGroupError(f"no chronicle named {name!r}")
        return self.groups[group_name][name]

    def create_relation(
        self,
        name: str,
        schema: Union[Schema, Sequence[Tuple[str, Any]]],
        key: Optional[Sequence[str]] = None,
        group: str = DEFAULT_GROUP,
        keep_history: bool = True,
    ) -> VersionedRelation:
        """Create a relation whose proactivity watermark tracks *group*."""
        if name in self.relations:
            raise ChronicleGroupError(f"relation {name!r} already exists")
        if name in self._chronicle_group:
            raise ChronicleGroupError(f"{name!r} already names a chronicle")
        if not isinstance(schema, Schema):
            schema = Schema.build(*schema, key=list(key) if key else None)
        owner = self.group(group)
        relation = VersionedRelation(
            name, schema, watermark=lambda: owner.watermark, keep_history=keep_history
        )
        self.relations[name] = relation
        if self._durability is not None:
            from ..algebra.plan import schema_spec

            self._durability.record_ddl(
                ("relation", name, schema_spec(relation.schema), group, keep_history)
            )
        return relation

    def relation(self, name: str) -> VersionedRelation:
        """Fetch a relation by name."""
        try:
            return self.relations[name]
        except KeyError:
            raise ChronicleGroupError(f"no relation named {name!r}") from None

    def catalog(self) -> Catalog:
        """A name-resolution catalog over the current chronicles/relations."""
        chronicles = {
            name: self.groups[group][name]
            for name, group in self._chronicle_group.items()
        }
        return Catalog(chronicles, dict(self.relations))

    # -- view definition (the language L) -----------------------------------------------

    def define_view(
        self,
        definition: Union[str, Summary],
        name: Optional[str] = None,
        materialize: bool = True,
    ) -> Union[PersistentView, PeriodicViewSet]:
        """Define and register a persistent view.

        *definition* is either ``DEFINE [PERIODIC] VIEW`` text or a
        programmatic :class:`Summary` (then *name* is required).  With
        *materialize*, the view is initialized from currently stored
        chronicle history ("materialized when it is initially defined",
        Section 2.1).  ``DEFINE PERIODIC VIEW name OVER …`` statements
        return the :class:`PeriodicViewSet` (Section 5.1); the OVER
        grammar is ``(EVERY w | WINDOW w [SLIDE s]) [STARTING o]
        [EXPIRE AFTER e] [BY column]``.
        """
        if isinstance(definition, str):
            compiler = Compiler(self.catalog(), self.aggregates)
            compiled = compiler.compile_definition(definition)
            if compiled.is_periodic:
                view_set = self._define_periodic_from_compiled(compiled, name)
                if self._durability is not None:
                    self._durability.record_view_definition(
                        definition, name, materialize
                    )
                return view_set
            view_name, summary = compiled.name, compiled.summary
            if name is not None:
                view_name = name
        else:
            if name is None:
                raise ViewRegistrationError("a programmatic view needs a name")
            view_name, summary = name, definition
        view = self._register_summary(view_name, summary, materialize)
        if self._durability is not None:
            if isinstance(definition, str):
                self._durability.record_view_definition(definition, name, materialize)
            else:
                self._durability.record_view_definition(summary, view_name, materialize)
        return view

    def _register_summary(
        self, view_name: str, summary: Summary, materialize: bool
    ) -> PersistentView:
        """Register one summary as a persistent view.

        The sharded engine places a partitionable view on its shards and
        returns the merged read handle; every other view — and every
        view on the serial engine — registers on :attr:`registry`.
        """
        shards = self._shards
        if shards is not None:
            if view_name in shards.merged or view_name in self.registry:
                raise ViewRegistrationError(
                    f"view name {view_name!r} already registered"
                )
            merged = shards.place(view_name, summary, materialize)
            if merged is not None:
                return merged
        view = PersistentView(view_name, summary)
        self.registry.register(view)
        if materialize:
            chronicles = summary.expression.chronicles()
            if any(c.appended_count and c.retention != 0 for c in chronicles):
                view.initialize_from_store()
        if shards is not None:
            shards.note_fallback(view_name, summary)
        return view

    def _define_periodic_from_compiled(
        self, compiled: Any, name: Optional[str]
    ) -> PeriodicViewSet:
        from ..views.calendar import PeriodicCalendar

        spec = compiled.periodic
        calendar = PeriodicCalendar(spec.origin, spec.width, stride=spec.stride)
        view_set = PeriodicViewSet(
            name or compiled.name,
            compiled.summary,
            calendar,
            chronon_of=compiled.chronon_of,
            expire_after=spec.expire_after,
        )
        chronicles = compiled.summary.expression.chronicles()
        owner = chronicles[0].group
        self.registry.register_periodic(view_set, owner)
        if self._durability is not None:
            self._durability.seed_periodic_clock(view_set)
        return view_set

    def define_periodic_view(
        self,
        name: str,
        definition: Union[str, Summary],
        calendar: Any,
        group: str = DEFAULT_GROUP,
        chronon_of: Optional[Any] = None,
        expire_after: Optional[float] = None,
        on_expire: Optional[Any] = None,
    ) -> PeriodicViewSet:
        """Define a periodic view V⟨D⟩ over *calendar* (Section 5.1)."""
        if isinstance(definition, str):
            compiler = Compiler(self.catalog(), self.aggregates)
            _, summary = compiler.compile_view(definition)
        else:
            summary = definition
        view_set = PeriodicViewSet(
            name,
            summary,
            calendar,
            chronon_of=chronon_of,
            expire_after=expire_after,
            on_expire=on_expire,
        )
        self.registry.register_periodic(view_set, self.group(group))
        if self._durability is not None:
            from ..storage.durability import NonDurableWarning

            warnings.warn(
                f"programmatic periodic view {name!r} cannot be logged; "
                f"recovery will not rebuild it — re-define it after open() "
                f"(its clock resumes from the log's meta table)",
                NonDurableWarning,
                stacklevel=2,
            )
            self._durability.seed_periodic_clock(view_set)
        return view_set

    def drop_view(self, name: str) -> None:
        """Unregister a persistent or periodic view."""
        if self._shards is None or not self._shards.drop_view(name):
            self.registry.unregister(name)
        if self._durability is not None:
            self._durability.record_ddl(("drop_view", name))

    def view(self, name: str) -> PersistentView:
        """Fetch a persistent view (the merged handle when partitioned)."""
        if self._shards is not None:
            merged = self._shards.merged.get(name)
            if merged is not None:
                return merged
        return self.registry.view(name)

    def views(self) -> Iterator[Any]:
        """Every persistent view: the registry's, then the merged handles
        of the partitioned ones, by name."""
        yield from self.registry.views()
        for name in self.partitioned_views:
            yield self._shards.merged[name]

    def periodic_view(self, name: str) -> PeriodicViewSet:
        """Fetch a registered periodic view set."""
        return self.registry.periodic(name)

    # -- updates -------------------------------------------------------------------------

    # One write path: admit through the group (serial — one sequence-number
    # domain per group, whatever maintains the views); on the sharded engine
    # route the stamped rows and dispatch one window; then one durability
    # commit point per call, handed the call's stamped batches.  It is
    # reached only once every registry and shard maintained them: a call
    # that raises logs nothing.

    def _owning_group(self, chronicle: str) -> ChronicleGroup:
        group_name = self._chronicle_group.get(chronicle)
        if group_name is None:
            raise ChronicleGroupError(f"no chronicle named {chronicle!r}")
        return self.groups[group_name]

    def append(
        self,
        chronicle: str,
        records: Union[RowValues, Sequence[RowValues]],
        sequence_number: Optional[SequenceNumber] = None,
        instant: Optional[float] = None,
    ) -> Tuple[Row, ...]:
        """Append one transaction batch; persistent views update before
        this call returns (the ATM requirement of Section 1)."""
        group = self._owning_group(chronicle)
        shards = self._shards
        fan_out = shards.open(group, "append") if shards is not None else None
        try:
            rows = group.append(
                chronicle, records, sequence_number=sequence_number, instant=instant
            )
            if fan_out is not None:
                fan_out.route({chronicle: rows})
        finally:
            if fan_out is not None:
                fan_out.close(1)
        if self._durability is not None:
            self._durability.batch_committed(
                [(group, {chronicle: rows}, group.watermark)] if rows else ()
            )
        return rows

    def append_simultaneous(
        self,
        batches: Mapping[str, Union[RowValues, Sequence[RowValues]]],
        group: str = DEFAULT_GROUP,
        sequence_number: Optional[SequenceNumber] = None,
        instant: Optional[float] = None,
    ) -> Dict[str, Tuple[Row, ...]]:
        """Append to several chronicles at one sequence number."""
        owner = self.group(group)
        shards = self._shards
        fan_out = (
            shards.open(owner, "append_simultaneous") if shards is not None else None
        )
        try:
            stamped = owner.append_simultaneous(
                batches, sequence_number=sequence_number, instant=instant
            )
            if fan_out is not None:
                fan_out.route(stamped)
        finally:
            if fan_out is not None:
                fan_out.close(1)
        if self._durability is not None:
            event = {name: rows for name, rows in stamped.items() if rows}
            self._durability.batch_committed(
                [(owner, event, owner.watermark)] if event else ()
            )
        return stamped

    def ingest(
        self,
        chronicle: str,
        batches: Sequence[Union[RowValues, Sequence[RowValues]]],
        instant: Optional[float] = None,
    ) -> int:
        """Append a window of transaction batches; returns records admitted.

        Each batch is admitted with its own fresh sequence number, and
        the views on :attr:`registry` (all of them on the serial engine;
        unpartitionable and periodic ones on the sharded engine) are
        maintained per batch.  The sharded engine's shards receive
        **one** coalesced event for the whole window — the per-event
        fixed costs are paid once instead of ``len(batches)`` times.
        The window is one durability commit point: its batches' log rows
        commit as one transaction once the whole window was maintained,
        and a window that raises logs none of them.
        """
        group = self._owning_group(chronicle)
        durability = self._durability
        committed = [] if durability is not None else None
        total = 0
        shards = self._shards
        fan_out = shards.open(group, "ingest") if shards is not None else None
        try:
            for records in batches:
                rows = group.append(chronicle, records, instant=instant)
                total += len(rows)
                if committed is not None and rows:
                    committed.append((group, {chronicle: rows}, group.watermark))
                if fan_out is not None:
                    fan_out.route({chronicle: rows})
        finally:
            if fan_out is not None:
                fan_out.close(len(batches))
        if durability is not None:
            durability.batch_committed(committed)
        return total

    def update_relation(self, name: str, key: Sequence[Any], **changes: Any) -> bool:
        """Proactively update a relation row (Section 2.3)."""
        updated = self.relation(name).update_key(key, **changes)
        if updated and self._durability is not None:
            self._durability.record_relation_update(name, key, changes)
        return updated

    # -- queries ---------------------------------------------------------------------------

    def view_row(self, name: str, key: Sequence[Any]) -> Optional[Row]:
        """Summary query: the view row at *key* — no chronicle access."""
        return self.view(name).lookup(key)

    def view_value(self, name: str, key: Sequence[Any], output: str) -> Any:
        """Summary query returning a single output attribute."""
        return self.view(name).value(key, output)

    def detail_window(
        self, chronicle: str, low: Optional[int] = None, high: Optional[int] = None
    ) -> List[Row]:
        """Detail query over a chronicle's retained window (Section 2.2)."""
        return self.chronicle(chronicle).window(low, high)

    @property
    def stats(self) -> Dict[str, Any]:
        """Maintenance/routing statistics (merged across shards when sharded).

        With observability enabled, a ``per_view`` key adds each observed
        view's ``{"spans": n, "last_append_seconds": s}`` from the handle
        (:meth:`~repro.obs.core.Observability.view_stats`).
        """
        stats = self.registry.stats
        if self._shards is not None:
            stats = self._shards.stats(stats)
        obs = self._observability
        if obs is not None:
            per_view = obs.view_stats([view.name for view in self.views()])
            if per_view:
                stats["per_view"] = per_view
        return stats

    def watermarks(self) -> Dict[str, Any]:
        """Per-group admission watermarks, plus each shard unit's own."""
        marks = {
            f"serial/{name}": group.watermark for name, group in self.groups.items()
        }
        if self._shards is not None:
            marks.update((unit.label, unit.watermark) for unit in self._shards.units())
        return marks

    # -- the sharded engine, seen from outside (empty on the serial engine) -----------

    @property
    def shard_groups(self) -> Tuple[Any, ...]:
        """The partition key classes, one row of shard units each."""
        return () if self._shards is None else tuple(self._shards.key_classes.values())

    @property
    def partitioned_views(self) -> Tuple[str, ...]:
        """Names of views maintained across worker shards."""
        return () if self._shards is None else tuple(sorted(self._shards.merged))

    @property
    def fallback_views(self) -> Tuple[str, ...]:
        """Names of views the sharded engine left on the serial registry."""
        return () if self._shards is None else tuple(self._shards.fallbacks)

    # -- health & incidents ------------------------------------------------------------

    def health(self) -> Any:
        """Evaluate this database's SLO policy; returns a HealthReport.

        Requires observability to be enabled (``observe=True`` or
        :meth:`enable_observability`) — health is defined over the
        metrics and auditor that layer collects.
        """
        obs = self._observability
        if obs is None:
            raise ObservabilityError(
                "health requires observability; enable it with "
                "ChronicleDatabase(config=DatabaseConfig(observe=True)) "
                "or db.enable_observability()"
            )
        return obs.health()

    def dump_incident(
        self, reason: str = "manual", path: Optional[str] = None
    ) -> Optional[str]:
        """Pull the flight-recorder tape by hand; returns the bundle path.

        Captures the tape (the recent traces of the tracer's ring plus
        the trigger markers), watermarks, registry stats, and the
        metrics snapshot into a JSON incident bundle — the same
        bundle automatic triggers (auditor violation, shard-worker
        error, SLO breach) write.  With *path* the bundle goes exactly
        there; otherwise it lands in the observability handle's
        ``incident_dir`` (``None`` means nothing is written and ``None``
        is returned — the trigger is still marked and counted).
        """
        obs = self._observability
        if obs is None:
            raise ObservabilityError(
                "dump_incident requires observability; enable it with "
                "db.enable_observability()"
            )
        return obs.incident(reason, path=path)

    # -- durability --------------------------------------------------------------------

    @classmethod
    def open(
        cls, path: str, config: Optional[DatabaseConfig] = None
    ) -> "ChronicleDatabase":
        """Open a durable database at *path*: recover-or-create.

        *path* is the durability directory (created on first use).  When
        it already holds durable state, the catalog is rebuilt from the
        logged DDL, the latest watermark-stamped snapshot is loaded, and
        the log tail replays through the normal maintenance path before
        the database is returned; otherwise a fresh durable database is
        created.  *config* selects the engine and all other knobs; its
        ``durability.dir`` is overridden by *path*, and a mode of
        ``"off"`` is promoted to ``"wal+snapshot"`` (opening a database
        is an explicit request for durability).
        """
        from ..storage.durability import open_database

        if config is None:
            config = DatabaseConfig()
        durability = config.durability
        if durability.mode == "off":
            durability = durability.replace(mode="wal+snapshot", dir=path)
        else:
            durability = durability.replace(dir=path)
        return open_database(config.replace(durability=durability))

    @property
    def durability(self) -> Optional[Any]:
        """The durability manager (None when durability is off)."""
        return self._durability

    def flush(self) -> None:
        """Force the append-ahead log to durable storage (fsync barrier).

        With ``fsync="batch"`` the log is committed per batch but only
        fsynced at snapshots and here; ``flush()`` is the explicit
        durability barrier.  No-op when durability is off.
        """
        if self._durability is not None:
            self._durability.flush()

    def checkpoint(self, path: str) -> None:
        """Write a durable snapshot of watermarks, relations, and views.

        Chronicles themselves are streams and are not stored; the views'
        materialized rows and aggregate accumulators — the only copy of
        the summarized history — are what the checkpoint protects.  The
        durability subsystem's periodic snapshots use this same codec;
        an explicit checkpoint works with or without durability on.
        """
        from ..storage.checkpoint import write_checkpoint

        write_checkpoint(self, path)

    def restore(self, source: Any) -> None:
        """Restore view/relation state from :meth:`checkpoint` output.

        *source* is a path, an open text file, or an already-parsed
        checkpoint document.  The database must first be re-declared to
        the same shape (groups, relations, view definitions); define
        views with ``materialize=False`` since their state comes from
        the checkpoint.  Shard routing is stable-hash based, so a
        checkpoint written by either engine (or another process) restores
        into either with every key on its owning shard.
        """
        from ..storage.checkpoint import load_checkpoint

        load_checkpoint(self, source)
        if self._shards is not None:
            self._shards.resync()

    def _replay_stamped(
        self,
        group: ChronicleGroup,
        event: Mapping[str, Tuple[Row, ...]],
        watermark: SequenceNumber,
    ) -> None:
        """Recovery hook: re-apply one logged batch, watermark-aware.

        The admission group absorbs the event through the group-commit
        path when its watermark is still behind it — replay past the
        watermark, skip what a snapshot already covers — and the sharded
        engine does the same per shard unit.
        """
        if watermark > group.watermark:
            group.ingest_stamped(event, watermark)
        if self._shards is not None:
            self._shards.replay(event, watermark)

    def __repr__(self) -> str:
        return (
            f"ChronicleDatabase(groups={sorted(self.groups)}, "
            f"chronicles={sorted(self._chronicle_group)}, "
            f"relations={sorted(self.relations)}, "
            f"views={len(self.registry) + len(self.partitioned_views)})"
        )
