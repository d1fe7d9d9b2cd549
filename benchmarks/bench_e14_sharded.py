"""E14 — sharded parallel maintenance vs the serial engine.

Implementation experiment (no paper claim): the ATM regime of Section 1
— many small transaction batches, each requiring views to be current
before the next transaction — on the consumer-banking workload, with a
wide view catalog (one summary per (kind, amount-band), all partitioned
by account).  The engines compared:

* ``serial``  — ``ChronicleDatabase()``: every transaction batch is its
  own maintenance event, so the per-event fixed costs (candidate
  routing, prefilter checks, plan invocation, delta assembly) are paid
  per batch;
* ``sharded`` — ``DatabaseConfig(engine="sharded", shards=N)``:
  admission and sequence stamping stay serial (the chronicle model's
  ordering requirement), but maintenance group-commits — each worker
  shard absorbs **one** coalesced event per ingest window — so those
  fixed costs are paid once per window per shard instead of once per
  batch.

Both engines consume the identical record stream through the same
``ingest(chronicle, batches)`` facade; the metric is records/second.
The win is the coalescing (fewer maintenance events for the same row
work): the default executor runs each shard's window inline on the
admitting thread.

Expected shape: sharded(4) >= 2.5x serial; sharded(2) >= 1.5x; and
sharded(1) — coalescing alone, no fan-out — already well above 1x,
showing where the win comes from.  ``gate()`` persists the numbers to
``BENCH_e14.json`` (schema v2, see ``_results.py``) and applies the
noise-aware regression gate: median of
TRIALS with an MAD band against the best recorded speedup.

Environment knobs: ``E14_SHARDS`` selects the gated shard count
(default 4 — CI's parallel-smoke job gates at 2 with the matching bar).
"""

import gc
import os
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _results import (  # noqa: E402
    append_run,
    comparable_runs,
    load_history,
    save_history,
)

from repro import ChronicleDatabase, DatabaseConfig, BankingWorkload  # noqa: E402
from repro.aggregates import COUNT, SUM, spec  # noqa: E402
from repro.algebra.ast import scan  # noqa: E402
from repro.complexity.counters import GLOBAL_COUNTERS  # noqa: E402
from repro.complexity.fitting import mad, median  # noqa: E402
from repro.complexity.harness import format_table  # noqa: E402
from repro.relational.predicate import attr_cmp, attr_eq  # noqa: E402
from repro.sca.summarize import GroupBySummary  # noqa: E402

ACCOUNTS = 256
BATCH = 6  # records per transaction batch (ATM regime: small batches)
WINDOW = 96  # batches per ingest window (the group-commit unit)
PRELOAD_WINDOWS = 3
MEASURED_WINDOWS = 12
REPS = 3  # best-of repetitions inside one measurement
TRIALS = 3  # measurement repetitions; the median gates

#: Amount bands (cents) crossed with transaction kinds -> the view
#: catalog.  Every view groups by acct, so all are partitionable.
_BANDS = (-100_000, -40_000, -20_000, -5_000, -1_000, 0, 20_000, 80_000, 150_000, 250_000)
_KINDS = ("withdrawal", "deposit", "fee", "check")

#: Shard counts measured by run_report; 0 = the serial engine.
SHARD_COUNTS = (0, 1, 2, 4)

#: Acceptance bar on the records/sec speedup vs serial, by shard count.
SPEEDUP_BARS = {1: 1.0, 2: 1.5, 4: 2.5}
TOLERANCE = 0.7  # regression: median speedup < 70% of best recorded
MAD_BAND = 3.0  # ...and more than 3 MADs below it

RESULTS_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_e14.json"
)
EXPERIMENT = "E14 sharded parallel maintenance"


def gated_shards() -> int:
    return int(os.environ.get("E14_SHARDS", "4"))


def _build(shards):
    """A database (serial when *shards* == 0) with the banking catalog."""
    if shards == 0:
        db = ChronicleDatabase()
    else:
        db = ChronicleDatabase(config=DatabaseConfig(engine="sharded", shards=shards))
    db.create_chronicle(
        "transactions", BankingWorkload.CHRONICLE_SCHEMA, retention=0
    )
    txn = db.chronicle("transactions")
    db.define_view(
        GroupBySummary(
            scan(txn), ["acct"], [spec(SUM, "cents"), spec(COUNT)]
        ),
        name="balance",
    )
    for kind in _KINDS:
        for i, band in enumerate(_BANDS):
            node = (
                scan(txn)
                .select(attr_eq("kind", kind))
                .select(attr_cmp("cents", "<" if band <= 0 else ">", band))
            )
            db.define_view(
                GroupBySummary(node, ["acct"], [spec(SUM, "cents"), spec(COUNT)]),
                name=f"v_{kind}_{i}",
            )
    return db


def _windows(count, start=0):
    """*count* ingest windows (each WINDOW batches of BATCH records)."""
    workload = BankingWorkload(seed=13, accounts=ACCOUNTS)
    records = list(workload.records(count * WINDOW * BATCH, start=start * WINDOW * BATCH))
    windows = []
    for w in range(count):
        base = w * WINDOW * BATCH
        windows.append(
            [records[base + b * BATCH : base + (b + 1) * BATCH] for b in range(WINDOW)]
        )
    return windows


def _throughput(shards):
    """Records/second through ``ingest`` for one engine configuration."""
    db = _build(shards)
    try:
        with GLOBAL_COUNTERS.disabled():
            for window in _windows(PRELOAD_WINDOWS):
                db.ingest("transactions", window)
            measured = _windows(MEASURED_WINDOWS, start=PRELOAD_WINDOWS)
            gc.collect()
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
                start = time.perf_counter()
                for window in measured:
                    db.ingest("transactions", window)
                elapsed = time.perf_counter() - start
            finally:
                if gc_was_enabled:
                    gc.enable()
    finally:
        db.close()
    return MEASURED_WINDOWS * WINDOW * BATCH / elapsed


def run_measurements(shard_counts=SHARD_COUNTS):
    """Records/sec per engine config: best of REPS, interleaved so
    transient machine noise lands on every configuration alike."""
    best = {shards: 0.0 for shards in shard_counts}
    for _ in range(REPS):
        for shards in shard_counts:
            best[shards] = max(best[shards], _throughput(shards))
    return best


def run_report() -> str:
    results = run_measurements()
    serial = results[0]
    rows = []
    for shards in SHARD_COUNTS:
        label = "serial" if shards == 0 else f"sharded({shards})"
        rows.append(
            [label, f"{results[shards]:,.0f}", f"{results[shards] / serial:.2f}x"]
        )
    return (
        f"== E14  records/second ({BATCH}-record batches, "
        f"{WINDOW}-batch ingest windows, {1 + len(_KINDS) * len(_BANDS)} views) ==\n"
        + format_table(["engine", "records/s", "vs serial"], rows)
        + "\nexpected: sharded(4) >= 2.5x serial (group-commit coalescing)\n"
    )


def gate(shards=None) -> int:
    """Measure TRIALS times, record BENCH_e14.json, gate on the median.

    Returns a process exit status (0 ok, 1 regression).  Noise-aware:
    the acceptance bar uses the median speedup, and a drop against the
    best recorded run only fails when it also clears an MAD band of
    this run's own trial spread.
    """
    if shards is None:
        shards = gated_shards()
    bar = SPEEDUP_BARS[shards]
    trials = []
    rates = []
    for _ in range(TRIALS):
        results = run_measurements(shard_counts=(0, shards))
        trials.append(results[shards] / results[0])
        rates.append(results)
    observed = median(trials)
    spread = mad(trials)

    history = load_history(RESULTS_PATH, EXPERIMENT)
    previous_best = max(
        (
            run["speedup"]
            for run in comparable_runs(history, shards=shards)
            if "speedup" in run
        ),
        default=None,
    )
    append_run(
        history,
        {
            "trials": TRIALS,
            "shards": shards,
            "batch": BATCH,
            "window": WINDOW,
            "records_per_sec": {
                "serial": round(median([r[0] for r in rates]), 1),
                "sharded": round(median([r[shards] for r in rates]), 1),
            },
            "speedup": round(observed, 3),
            "speedup_trials": [round(s, 3) for s in trials],
            "speedup_mad": round(spread, 4),
        },
    )
    save_history(RESULTS_PATH, history)

    print(
        f"sharded({shards}) speedup: median {observed:.2f}x of {TRIALS} "
        f"trials {[round(s, 2) for s in trials]}  MAD {spread:.3f}"
    )
    print(f"results appended to {RESULTS_PATH}")
    failed = False
    if observed < bar:
        print(
            f"REGRESSION: median sharded({shards}) speedup {observed:.2f}x "
            f"is below the {bar}x acceptance bar"
        )
        failed = True
    if (
        previous_best is not None
        and observed < TOLERANCE * previous_best
        and observed < previous_best - MAD_BAND * spread
    ):
        print(
            f"REGRESSION: median speedup {observed:.2f}x is below "
            f"{TOLERANCE:.0%} of the best recorded {previous_best:.2f}x "
            f"and outside the {MAD_BAND:.0f}-MAD noise band ({spread:.3f})"
        )
        failed = True
    if not failed:
        print("ok: no regression")
    return 1 if failed else 0


def test_e14_sharded_speedup():
    shards = gated_shards()
    best = 0.0
    for _ in range(TRIALS):
        results = run_measurements(shard_counts=(0, shards))
        best = max(best, results[shards] / results[0])
    assert best >= SPEEDUP_BARS[shards]


def test_e14_engines_agree():
    # Same stream through both engines: identical view states.
    states = {}
    for shards in (0, 3):
        db = _build(shards)
        for window in _windows(2):
            db.ingest("transactions", window)
        names = ["balance"] + [
            f"v_{kind}_{i}" for kind in _KINDS for i in range(len(_BANDS))
        ]
        states[shards] = {
            name: sorted(tuple(r.values) for r in db.view(name).rows())
            for name in names
        }
        db.close()
    assert states[0] == states[3]


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_e14_ingest(benchmark, shards):
    db = _build(shards)
    with GLOBAL_COUNTERS.disabled():
        for window in _windows(PRELOAD_WINDOWS):
            db.ingest("transactions", window)
        windows = _windows(8, start=PRELOAD_WINDOWS)
    counter = [0]

    def action():
        counter[0] += 1
        db.ingest("transactions", windows[counter[0] % len(windows)])

    benchmark(action)


if __name__ == "__main__":
    if "--gate" in sys.argv:
        sys.exit(gate())
    sys.stdout.write(run_report())
