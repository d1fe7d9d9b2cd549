"""Seeded input streams: one sequential pass of one ``random.Random``.

Every draw a run makes — relation rows, preload, each measured segment's
writes and lookup keys — comes from the single generator the benchmark
creates from ``--seed``, in that order, so preload and measured draws are
disjoint and the same seed gives the same inputs.  Segments are generated
one at a time (outside the timed intervals) so the process never holds
more than one segment of input.

An *op* is a tuple: ``(WRITE, payload, batches)`` where *payload* is what
the workload's write call takes (one batch of records for ``append``, a
list of batches for ``ingest``) and *batches* is the same records as a
list of batches for the reference; or ``(UPDATE, key, changes)`` for one
``update_relation``.

Key popularity is by rank and the rank → key mapping is fixed, so which
keys are hot (and which shard they hash to) does not change with the seed.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Tuple

WRITE, UPDATE = 0, 1

Op = Tuple[Any, ...]
Key = Tuple[Any, ...]

#: The E14 banking catalog: one view per (kind, amount band).  A negative
#: band selects ``cents < band``, a positive one ``cents > band``.
KINDS = ("withdrawal", "deposit", "fee", "check")
BANDS = (-100_000, -40_000, -20_000, -5_000, -1_000, 0, 20_000, 80_000, 150_000, 250_000)

BANKING_SCHEMA = [("acct", "INT"), ("kind", "STR"), ("cents", "INT"), ("day", "INT")]
CALLS_SCHEMA = [
    ("caller", "INT"),
    ("callee", "INT"),
    ("minutes", "INT"),
    ("cents", "INT"),
    ("day", "INT"),
]
SUBSCRIBERS_SCHEMA = [("number", "INT"), ("plan", "STR"), ("state", "STR")]
PLANS = ("basic", "plus", "premier")
STATES = ("NJ", "NY", "CT", "PA")

_FIRST_ACCT = 100_000
_FIRST_NUMBER = 5_550_000
_RECORDS_PER_DAY = 1_000


class _Ranks:
    """Draws a 0-based rank: Zipf(*skew*) when given, uniform otherwise."""

    def __init__(self, rng: random.Random, population: int, skew: Optional[float]) -> None:
        self._rng = rng
        self._population = population
        self._cumulative: Optional[List[float]] = None
        if skew is not None:
            weights = [1.0 / rank**skew for rank in range(1, population + 1)]
            total = sum(weights)
            running = 0.0
            self._cumulative = []
            for weight in weights:
                running += weight / total
                self._cumulative.append(running)

    def draw(self) -> int:
        if self._cumulative is None:
            return self._rng.randrange(self._population)
        return min(bisect_left(self._cumulative, self._rng.random()), self._population - 1)


def _cents(rng: random.Random, kind: str) -> int:
    if kind == "withdrawal":
        return -rng.randrange(2_000, 40_001)
    if kind == "deposit":
        return rng.randrange(5_000, 300_001)
    if kind == "check":
        return -rng.randrange(1_000, 150_001)
    return -rng.randrange(100, 2_501)


def _kind(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.45:
        return "withdrawal"
    if roll < 0.75:
        return "deposit"
    if roll < 0.9:
        return "check"
    return "fee"


class BankingStream:
    """Account transactions in batches; one write is 1 or more batches.

    Parameters (all from the workload's size table): *accounts* and
    *skew* shape the key space; *batch* is records per batch;
    *batches_per_write* is 1 for ``append`` workloads and the window
    length for ``ingest``; *sweep* makes the preload touch every
    (account, kind) pair once, so the measured phase folds into existing
    state only and the view state has its final size from the start.
    """

    def __init__(
        self,
        rng: random.Random,
        *,
        accounts: int,
        skew: Optional[float],
        batch: int,
        batches_per_write: int,
        writes_per_segment: int,
        preload_writes: int,
        lookups: int,
        sweep: bool = False,
    ) -> None:
        self._rng = rng
        self._ranks = _Ranks(rng, accounts, skew)
        self._accounts = accounts
        self._batch = batch
        self._batches_per_write = batches_per_write
        self._writes_per_segment = writes_per_segment
        self._preload_writes = preload_writes
        self._lookups = lookups
        self._sweep = sweep
        self._records = 0

    def _record(self, acct: int, kind: str) -> Dict[str, Any]:
        self._records += 1
        return {
            "acct": acct,
            "kind": kind,
            "cents": _cents(self._rng, kind),
            "day": self._records // _RECORDS_PER_DAY,
        }

    def _draw_record(self) -> Dict[str, Any]:
        return self._record(_FIRST_ACCT + self._ranks.draw(), _kind(self._rng))

    def _write(self, batches: List[List[Dict[str, Any]]]) -> Op:
        payload = batches[0] if self._batches_per_write == 1 else batches
        return (WRITE, payload, batches)

    def _draw_write(self) -> Op:
        return self._write(
            [
                [self._draw_record() for _ in range(self._batch)]
                for _ in range(self._batches_per_write)
            ]
        )

    def preload(self) -> List[Op]:
        if not self._sweep:
            return [self._draw_write() for _ in range(self._preload_writes)]
        pairs = [
            (_FIRST_ACCT + offset, kind)
            for offset in range(self._accounts)
            for kind in KINDS
        ]
        self._rng.shuffle(pairs)
        records = [self._record(acct, kind) for acct, kind in pairs]
        per_write = self._batch * self._batches_per_write
        while len(records) % per_write:
            records.append(self._draw_record())
        ops = []
        for start in range(0, len(records), per_write):
            chunk = records[start : start + per_write]
            ops.append(
                self._write(
                    [chunk[i : i + self._batch] for i in range(0, per_write, self._batch)]
                )
            )
        return ops

    def segment(self) -> Tuple[List[Op], List[Key]]:
        ops = [self._draw_write() for _ in range(self._writes_per_segment)]
        keys = [(_FIRST_ACCT + self._ranks.draw(),) for _ in range(self._lookups)]
        return ops, keys


class TelecomStream:
    """1-record call batches with a plan change every *update_every* appends.

    The preload is a sweep: every subscriber makes one short and one long
    call, in shuffled order, so every row of every view exists before the
    measured phase and a snapshot costs the same in every segment.
    """

    def __init__(
        self,
        rng: random.Random,
        *,
        subscribers: int,
        skew: Optional[float],
        long_call_minutes: int,
        writes_per_segment: int,
        update_every: int,
        lookups: int,
    ) -> None:
        self._rng = rng
        self._subscribers = subscribers
        self._ranks = _Ranks(rng, subscribers, skew)
        self._long = long_call_minutes
        self._writes_per_segment = writes_per_segment
        self._update_every = update_every
        self._lookups = lookups
        self._appends = 0
        #: The relation's initial rows (drawn first, before any call).
        self.subscriber_rows: List[Dict[str, Any]] = [
            {
                "number": _FIRST_NUMBER + offset,
                "plan": PLANS[rng.randrange(len(PLANS))],
                "state": STATES[rng.randrange(len(STATES))],
            }
            for offset in range(subscribers)
        ]

    def _call(self, caller: int, minutes: int) -> List[Op]:
        """One append, and the plan change that follows it when one is due."""
        rng = self._rng
        record = {
            "caller": caller,
            "callee": _FIRST_NUMBER + rng.randrange(self._subscribers),
            "minutes": minutes,
            "cents": 15 + 12 * minutes,
            "day": self._appends // _RECORDS_PER_DAY,
        }
        ops: List[Op] = [(WRITE, [record], [[record]])]
        self._appends += 1
        if self._appends % self._update_every == 0:
            key = (_FIRST_NUMBER + rng.randrange(self._subscribers),)
            ops.append((UPDATE, key, {"plan": PLANS[rng.randrange(len(PLANS))]}))
        return ops

    def _draw(self, appends: int) -> List[Op]:
        rng = self._rng
        ops: List[Op] = []
        for _ in range(appends):
            # Short calls dominate: the minimum of two uniform draws.
            minutes = 1 + min(rng.randrange(60), rng.randrange(60))
            ops.extend(self._call(_FIRST_NUMBER + self._ranks.draw(), minutes))
        return ops

    def preload(self) -> List[Op]:
        rng = self._rng
        calls = [
            (_FIRST_NUMBER + offset, long)
            for offset in range(self._subscribers)
            for long in (False, True)
        ]
        rng.shuffle(calls)
        ops: List[Op] = []
        for caller, long in calls:
            minutes = rng.randrange(self._long + 1, 61) if long else rng.randrange(1, self._long + 1)
            ops.extend(self._call(caller, minutes))
        return ops

    def segment(self) -> Tuple[List[Op], List[Key]]:
        ops = self._draw(self._writes_per_segment)
        keys = [(_FIRST_NUMBER + self._ranks.draw(),) for _ in range(self._lookups)]
        return ops, keys

    def tail(self, appends: int) -> List[Op]:
        """Untimed appends after the measured phase, so the crash always
        leaves the same length of log tail for recovery to replay."""
        return self._draw(appends)
