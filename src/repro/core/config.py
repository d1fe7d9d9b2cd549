"""Database configuration: one frozen object instead of keyword sprawl.

:class:`DatabaseConfig` is the single immutable value object a
:class:`~repro.core.database.ChronicleDatabase` is built from; it also
carries the engine selection knobs of the sharded maintenance engine
(:mod:`repro.parallel`)::

    from repro import ChronicleDatabase, DatabaseConfig

    db = ChronicleDatabase(config=DatabaseConfig(engine="sharded", shards=4))
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Optional

from ..errors import ConfigError
from ..obs.health import SloPolicy

#: Supported maintenance engines.
ENGINES = ("serial", "sharded")

#: Supported shard executors (sharded engine only).
EXECUTORS = ("serial", "process")

#: Supported auditor modes (observability).
AUDIT_MODES = ("off", "warn", "raise")

#: Supported durability modes.
DURABILITY_MODES = ("off", "wal+snapshot")

#: Supported WAL fsync policies.
FSYNC_POLICIES = ("always", "batch", "off")


@dataclass(frozen=True)
class DurabilityConfig:
    """Immutable durability knobs of a :class:`ChronicleDatabase`.

    Parameters
    ----------
    mode:
        ``"off"`` — no durability, the hot path is untouched (default);
        ``"wal+snapshot"`` — every acknowledged batch is written to the
        log once its maintenance returned, and periodic watermark-stamped
        view snapshots truncate the log tail (bounded recovery and
        bounded disk).
    dir:
        Directory holding the database's durability file (one SQLite
        file per database, ``wal`` journal mode).  Required whenever
        *mode* is not ``"off"``; created on first use.
    fsync:
        ``"always"`` — fsync per logged batch (synchronous=FULL);
        ``"batch"`` — commit per batch without per-batch fsync
        (synchronous=NORMAL; durable against process crash, the OS page
        cache bounds loss on power failure; fsync happens at snapshot,
        ``flush()``, and ``close()``); ``"off"`` — no sync at all
        (benchmarking only).
    snapshot_interval_batches:
        Take a snapshot every N logged batches (N >= 1).  A large N
        replays a long log tail on recovery instead.
    """

    mode: str = "off"
    dir: Optional[str] = None
    fsync: str = "batch"
    snapshot_interval_batches: int = 512

    def __post_init__(self) -> None:
        if self.mode not in DURABILITY_MODES:
            raise ConfigError(
                f"unknown durability mode {self.mode!r}; "
                f"expected one of {DURABILITY_MODES}"
            )
        if self.fsync not in FSYNC_POLICIES:
            raise ConfigError(
                f"unknown fsync policy {self.fsync!r}; "
                f"expected one of {FSYNC_POLICIES}"
            )
        if self.dir is not None and not isinstance(self.dir, str):
            raise ConfigError(
                f"durability dir must be a path string or None, got {self.dir!r}"
            )
        if self.mode != "off" and not self.dir:
            raise ConfigError(
                f"durability mode {self.mode!r} requires dir to be set"
            )
        if (
            not isinstance(self.snapshot_interval_batches, int)
            or isinstance(self.snapshot_interval_batches, bool)
            or self.snapshot_interval_batches < 1
        ):
            raise ConfigError(
                "snapshot_interval_batches must be a positive int, got "
                f"{self.snapshot_interval_batches!r}"
            )

    def replace(self, **changes: Any) -> "DurabilityConfig":
        """A copy of this config with *changes* applied (validated)."""
        unknown = set(changes) - {f.name for f in fields(self)}
        if unknown:
            raise ConfigError(f"unknown config fields {sorted(unknown)}")
        return replace(self, **changes)


@dataclass(frozen=True)
class DatabaseConfig:
    """Immutable configuration of a :class:`ChronicleDatabase`.

    Parameters
    ----------
    engine:
        ``"serial"`` — every view is maintained on the admitting path —
        or ``"sharded"`` — partitionable views are hash-partitioned
        across the shards of :mod:`repro.parallel`.  Either way the
        database is a :class:`~repro.core.database.ChronicleDatabase`.
    shards:
        Number of worker shards per partitionable key class (sharded
        engine only; must be >= 1).
    executor:
        Where a window's per-shard maintenance runs (sharded engine
        only): ``"serial"`` (inline on the admitting thread, the
        default — deterministic, and the faster of the two on every
        stream measured so far, docs/performance.md) or ``"process"``
        (worker processes holding portable shard replicas; views whose
        definitions cannot cross a process boundary fall back to the
        serial shard with a warning).
    observe:
        Create and install an :class:`~repro.obs.Observability` handle.
        Under ``executor="process"`` it observes the parent side only:
        worker processes trace nothing, and a window's ``shard_apply``
        span carries its record count and the worker's wall time.
    audit_mode:
        Auditor mode used when *observe* builds the handle
        (``"off"`` / ``"warn"`` / ``"raise"``).
    slo:
        The :class:`~repro.obs.health.SloPolicy` health evaluation
        (``/health``, ``SHOW HEALTH``, :meth:`ChronicleDatabase.health`)
        runs against when *observe* builds the handle.  ``None`` — the
        default policy.
    aggregates:
        Aggregate registry for the view language (``None`` — a fresh
        copy of the standard registry).
    durability:
        A :class:`DurabilityConfig`.  ``None`` normalizes to the default
        (mode ``"off"``), keeping the hot path untouched.
    """

    engine: str = "serial"
    shards: int = 4
    executor: str = "serial"
    observe: bool = False
    audit_mode: str = "warn"
    slo: Optional[SloPolicy] = None
    aggregates: Optional[Any] = field(default=None, compare=False)
    durability: Optional[DurabilityConfig] = None

    def __post_init__(self) -> None:
        if self.durability is None:
            object.__setattr__(self, "durability", DurabilityConfig())
        elif not isinstance(self.durability, DurabilityConfig):
            raise ConfigError(
                "durability must be a DurabilityConfig or None, got "
                f"{type(self.durability).__name__}"
            )
        if self.slo is not None and not isinstance(self.slo, SloPolicy):
            raise ConfigError(
                f"slo must be an SloPolicy or None, got {type(self.slo).__name__}"
            )
        if self.engine not in ENGINES:
            raise ConfigError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}"
            )
        if self.executor not in EXECUTORS:
            hint = (
                ' (the thread pool was removed: "serial" does the same work '
                "inline, faster)"
                if self.executor == "thread"
                else ""
            )
            raise ConfigError(
                f"unknown executor {self.executor!r}; expected one of {EXECUTORS}{hint}"
            )
        if self.audit_mode not in AUDIT_MODES:
            raise ConfigError(
                f"unknown audit_mode {self.audit_mode!r}; "
                f"expected one of {AUDIT_MODES}"
            )
        if not isinstance(self.shards, int) or isinstance(self.shards, bool) or self.shards < 1:
            raise ConfigError(f"shards must be a positive int, got {self.shards!r}")
        if not isinstance(self.observe, bool):
            raise ConfigError(f"observe must be a bool, got {self.observe!r}")

    def replace(self, **changes: Any) -> "DatabaseConfig":
        """A copy of this config with *changes* applied (validated)."""
        unknown = set(changes) - {f.name for f in fields(self)}
        if unknown:
            raise ConfigError(f"unknown config fields {sorted(unknown)}")
        return replace(self, **changes)
