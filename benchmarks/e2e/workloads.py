"""The four workloads: catalog, stream shape, reference, and restart path.

Each workload drives only the public facade (``ChronicleDatabase.append /
ingest / view_row / update_relation / checkpoint / restore / open``).
Names are permanent — later issues cite them — and must match
``BENCHMARK.json``, which also records why each was chosen.
"""

from __future__ import annotations

import os
import random
import shutil
from typing import Any, Callable, Dict, List, Tuple

from repro import ChronicleDatabase, DatabaseConfig
from repro.aggregates import COUNT, MAX, MIN, SUM, spec
from repro.algebra.ast import scan
from repro.core.config import DurabilityConfig
from repro.relational.predicate import attr_cmp, attr_eq
from repro.sca.summarize import GroupBySummary

from . import reference, streams

#: Work per segment: about 40 ms of writes on the 2-vCPU box README.md
#: names (README.md says why so short), then one block of lookups;
#: ``smoke`` is the same shape at tiny scale.  durable_join's ``writes``
#: and preload (two calls per subscriber) are multiples of its snapshot
#: interval, so every segment pays for exactly one snapshot, and its
#: ``tail`` fixes the length of log the crash leaves for recovery to replay.
SIZES: Dict[str, Dict[str, Dict[str, int]]] = {
    "full": {
        "atm_wide": {"accounts": 256, "writes": 128, "preload": 1024, "lookups": 2048},
        "wide_state": {"accounts": 6144, "writes": 24, "lookups": 2048},
        "bulk_process": {
            "accounts": 256,
            "window": 96,
            "writes": 1,
            "preload": 3,
            "lookups": 2048,
        },
        "durable_join": {
            "subscribers": 2048,
            "snapshot_interval": 512,
            "writes": 512,
            "tail": 256,
            "lookups": 2048,
        },
    },
    "smoke": {
        "atm_wide": {"accounts": 64, "writes": 16, "preload": 32, "lookups": 32},
        "wide_state": {"accounts": 128, "writes": 4, "lookups": 32},
        "bulk_process": {"accounts": 64, "window": 8, "writes": 2, "preload": 1, "lookups": 32},
        "durable_join": {
            "subscribers": 64,
            "snapshot_interval": 32,
            "writes": 32,
            "tail": 24,
            "lookups": 32,
        },
    },
}


def _no_lap() -> None:
    pass


def _define_balance(db: ChronicleDatabase) -> None:
    txn = db.chronicle("transactions")
    db.define_view(
        GroupBySummary(scan(txn), ["acct"], [spec(SUM, "cents"), spec(COUNT)]),
        name="balance",
    )


def _banded_catalog(config: DatabaseConfig, lap: Callable[[], None]) -> ChronicleDatabase:
    """The E14 banking catalog: ``balance`` + kind x amount-band selections."""
    db = ChronicleDatabase(config=config)
    db.create_chronicle("transactions", streams.BANKING_SCHEMA, retention=0)
    _define_balance(db)
    lap()
    txn = db.chronicle("transactions")
    for kind in streams.KINDS:
        for index, band in enumerate(streams.BANDS):
            node = (
                scan(txn)
                .select(attr_eq("kind", kind))
                .select(attr_cmp("cents", "<" if band <= 0 else ">", band))
            )
            db.define_view(
                GroupBySummary(node, ["acct"], [spec(SUM, "cents"), spec(COUNT)]),
                name=f"v_{kind}_{index}",
            )
            lap()
    return db


class Workload:
    """One workload over one seeded stream; subclasses fill in the rest."""

    name = ""
    chronicle = "transactions"
    lookup_view = "balance"
    relation = ""
    #: ``append`` takes one batch and returns the stamped rows; ``ingest``
    #: takes a window of batches and returns the admitted count.
    write_method = "append"
    #: Whether the traced run adds a pass with ``observe=True``.
    observe_pass = False

    def __init__(self, scale: str, rng: random.Random) -> None:
        self.size = SIZES[scale][self.name]
        self.stream = self._stream(rng)
        self.reference = self._reference()

    def _stream(self, rng: random.Random) -> Any:
        raise NotImplementedError

    def _reference(self) -> Any:
        raise NotImplementedError

    def build(
        self, directory: str, observe: bool = False, lap: Callable[[], None] = _no_lap
    ) -> ChronicleDatabase:
        """A fresh database with the workload's catalog, nothing loaded.

        Calls *lap* after each step of the build, the same steps in the
        same order every time, so the caller can time them one by one.
        """
        raise NotImplementedError

    def writer(self, db: ChronicleDatabase) -> Tuple[Callable[[Any], Any], Callable[[Any], int]]:
        """``(write, admitted)``: the timed call and how to count its result."""
        method = getattr(db, self.write_method)
        chronicle = self.chronicle

        def write(payload: Any) -> Any:
            return method(chronicle, payload)

        return write, (len if self.write_method == "append" else int)

    def tail_ops(self) -> List[streams.Op]:
        """Untimed writes between the measured phase and the restart."""
        return []

    # -- restart: persisted bytes -> a database equal to the reference ---------

    def persist(self, db: ChronicleDatabase, workdir: str, copies: int) -> Dict[str, Any]:
        """Untimed: write the bytes each restart starts from."""
        path = os.path.join(workdir, "checkpoint.json")
        db.checkpoint(path)
        return {"path": path, "bytes": os.path.getsize(path)}

    def restart(self, persisted: Dict[str, Any], workdir: str, copy: int) -> ChronicleDatabase:
        """Timed: fresh catalog + ``restore``."""
        db = self.build(os.path.join(workdir, f"restart-{copy}"))
        db.restore(persisted["path"])
        return db


class _Banded(Workload):
    def _reference(self) -> Any:
        return reference.BandedBankingReference()


class AtmWide(_Banded):
    name = "atm_wide"
    observe_pass = True

    def _stream(self, rng: random.Random) -> Any:
        size = self.size
        return streams.BankingStream(
            rng,
            accounts=size["accounts"],
            skew=1.1,
            batch=2,
            batches_per_write=1,
            writes_per_segment=size["writes"],
            preload_writes=size["preload"],
            lookups=size["lookups"],
        )

    def build(
        self, directory: str, observe: bool = False, lap: Callable[[], None] = _no_lap
    ) -> ChronicleDatabase:
        return _banded_catalog(DatabaseConfig(observe=observe), lap)


class BulkProcess(_Banded):
    name = "bulk_process"
    write_method = "ingest"
    # Exactly nproc = 2 worker processes; the parent blocks while they
    # run, so there are never more runnable tasks than cores.
    worker_processes = 2

    def _stream(self, rng: random.Random) -> Any:
        size = self.size
        return streams.BankingStream(
            rng,
            accounts=size["accounts"],
            skew=1.1,
            batch=6,
            batches_per_write=size["window"],
            writes_per_segment=size["writes"],
            preload_writes=size["preload"],
            lookups=size["lookups"],
        )

    def build(
        self, directory: str, observe: bool = False, lap: Callable[[], None] = _no_lap
    ) -> ChronicleDatabase:
        return _banded_catalog(
            DatabaseConfig(
                engine="sharded",
                shards=self.worker_processes,
                executor="process",
                observe=observe,
            ),
            lap,
        )


class WideState(Workload):
    name = "wide_state"

    def _stream(self, rng: random.Random) -> Any:
        size = self.size
        return streams.BankingStream(
            rng,
            accounts=size["accounts"],
            skew=None,
            batch=48,
            batches_per_write=1,
            writes_per_segment=size["writes"],
            preload_writes=0,
            lookups=size["lookups"],
            sweep=True,
        )

    def _reference(self) -> Any:
        return reference.WideStateReference()

    def build(
        self, directory: str, observe: bool = False, lap: Callable[[], None] = _no_lap
    ) -> ChronicleDatabase:
        db = ChronicleDatabase(config=DatabaseConfig(observe=observe))
        db.create_chronicle("transactions", streams.BANKING_SCHEMA, retention=0)
        _define_balance(db)
        lap()
        txn = db.chronicle("transactions")
        db.define_view(
            GroupBySummary(
                scan(txn),
                ["acct", "kind"],
                [spec(SUM, "cents"), spec(COUNT), spec(MIN, "cents"), spec(MAX, "cents")],
            ),
            name="activity",
        )
        lap()
        return db


class DurableJoin(Workload):
    name = "durable_join"
    chronicle = "calls"
    lookup_view = "usage"
    relation = "subscribers"

    _JOIN = "FROM calls JOIN subscribers ON calls.caller = subscribers.number"
    DDL = (
        "DEFINE VIEW usage AS SELECT caller, SUM(minutes) AS minutes, COUNT(*) AS calls "
        "FROM calls GROUP BY caller",
        "DEFINE VIEW plan_revenue AS SELECT plan, SUM(cents) AS revenue, COUNT(*) AS calls "
        f"{_JOIN} GROUP BY plan",
        f"DEFINE VIEW state_minutes AS SELECT state, SUM(minutes) AS minutes {_JOIN} "
        "GROUP BY state",
        "DEFINE VIEW long_calls AS SELECT caller, COUNT(*) AS calls, MAX(minutes) AS longest "
        f"FROM calls WHERE minutes > {reference.TelecomReference.LONG_CALL_MINUTES} "
        "GROUP BY caller",
    )

    def _stream(self, rng: random.Random) -> Any:
        size = self.size
        return streams.TelecomStream(
            rng,
            subscribers=size["subscribers"],
            skew=1.1,
            long_call_minutes=reference.TelecomReference.LONG_CALL_MINUTES,
            writes_per_segment=size["writes"],
            update_every=50,
            lookups=size["lookups"],
        )

    def _reference(self) -> Any:
        return reference.TelecomReference(self.stream.subscriber_rows)

    def _config(self, directory: str, observe: bool = False) -> DatabaseConfig:
        # "wal+snapshot", not the issue's "wal": only this mode takes the
        # periodic snapshots the workload exists to measure, and restart
        # is then snapshot + log-tail replay.  fsync="batch" flushes at
        # every snapshot, so the measured path is the durable one.
        return DatabaseConfig(
            observe=observe,
            durability=DurabilityConfig(
                mode="wal+snapshot",
                dir=directory,
                fsync="batch",
                snapshot_interval_batches=self.size["snapshot_interval"],
            ),
        )

    def build(
        self, directory: str, observe: bool = False, lap: Callable[[], None] = _no_lap
    ) -> ChronicleDatabase:
        directory = os.path.join(directory, "wal")
        db = ChronicleDatabase.open(directory, config=self._config(directory, observe))
        db.create_chronicle("calls", streams.CALLS_SCHEMA, retention=0)
        db.create_relation("subscribers", streams.SUBSCRIBERS_SCHEMA, key=["number"])
        lap()
        # Rows first: the snapshot taken at each view definition below is
        # what makes directly-inserted relation rows durable.
        subscribers = db.relation("subscribers")
        for index, row in enumerate(self.stream.subscriber_rows, 1):
            subscribers.insert(row)
            if index % 256 == 0:
                lap()
        for statement in self.DDL:
            db.define_view(statement)
            lap()
        return db

    def tail_ops(self) -> List[streams.Op]:
        return self.stream.tail(self.size["tail"])

    def persist(self, db: ChronicleDatabase, workdir: str, copies: int) -> Dict[str, Any]:
        """Crash — drop the log connection with no final snapshot — then
        give each restart its own copy of the crashed directory."""
        db.durability.abort()
        crashed = db.config.durability.dir
        targets = [os.path.join(workdir, f"crash-{copy}") for copy in range(copies)]
        for target in targets:
            shutil.copytree(crashed, target)
        return {"copies": targets, "bytes": 0}

    def restart(self, persisted: Dict[str, Any], workdir: str, copy: int) -> ChronicleDatabase:
        directory = persisted["copies"][copy]
        return ChronicleDatabase.open(directory, config=self._config(directory))


WORKLOADS = {cls.name: cls for cls in (AtmWide, WideState, BulkProcess, DurableJoin)}
