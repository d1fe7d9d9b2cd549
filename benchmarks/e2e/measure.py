"""One pass over one workload: set-up, measured segments, restart, checks.

The load is a closed loop with one client: the paper's ATM requirement is
synchronous, the caller waits until every view is current before the next
call.  A pass is cut into equal-work *segments* — a fixed number of write
calls, each timed, then one block of ``view_row`` lookups timed as a
block — and runs whole segments until the measured time reaches the
requested seconds.  Everything else (drawing inputs, the reference,
checking answers) happens between the timed intervals.

Every timing is plain wall-clock, read one way: the **fast hundredth of
its per-segment values** (p99 of segment throughput, p01 of segment
latency medians) over some hundreds of short segments.  Neighbour noise on
a shared box is one-sided — it only ever slows the program — and leaves
quiet gaps of tens of milliseconds, few of them in a bad quarter of an
hour, so short segments and a low quantile read the program's own speed;
README.md has the study.  Set-up is read the same way: it is a fixed list
of steps (each view definition, each preload call), it is done ``SETUPS``
times on fresh databases with every step timed, and ``setup_s`` is the sum
over the steps of the fastest each one went.  Restart is a single interval
that cannot be cut up: it is repeated on fresh copies and the median
reported.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import random
import resource
import shutil
import time
from array import array
from statistics import median, quantiles
from typing import Any, Callable, Dict, List, Optional

from repro.complexity.counters import GLOBAL_COUNTERS

from .streams import UPDATE, WRITE, Op
from .trace import ROOT_UPDATE, ROOT_WRITE, Tracer
from .workloads import WORKLOADS, Workload

_now = time.perf_counter_ns

#: Segments a pass measures at least, however fast the program gets.
MIN_SEGMENTS = 100
#: Fresh set-ups per untraced pass.
SETUPS = 5


def fast(values: List[float], better: str) -> float:
    """The fast hundredth: p99 when higher is better, p01 when lower is."""
    if len(values) < 2:
        return values[0]
    cuts = quantiles(values, n=100, method="inclusive")
    return cuts[-1] if better == "higher" else cuts[0]


class Checker:
    """Counts operations attempted and failed; a wrong answer is a failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first_failure: Optional[str] = None

    def expect(self, ok: bool, what: Callable[[], str], count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = what()

    def views(self, db: Any, reference: Any, when: str) -> int:
        """Every view's rows against the reference; returns rows compared."""
        rows = 0
        for name, expected in reference.rows().items():
            got = {tuple(row.values) for row in db.view(name).rows()}
            rows += len(got)
            self.expect(
                got == set(expected.values()),
                lambda: f"view {name!r} differs from the reference {when}",
            )
        return rows


def _worker_hwm_mb() -> float:
    """Sum of the live worker processes' peak resident sizes."""
    total_kb = 0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            pass
    return total_kb / 1024


def _teardown(db: Any, directory: str) -> None:
    db.close()
    db.disable_observability()
    shutil.rmtree(directory, ignore_errors=True)


def _apply_untimed(
    ops: List[Op],
    write: Callable[[Any], Any],
    update: Callable[..., Any],
    relation: str,
    lap: Callable[[], None] = lambda: None,
) -> None:
    for op in ops:
        if op[0] == WRITE:
            write(op[1])
        elif op[0] == UPDATE:
            update(relation, op[1], **op[2])
        lap()


def run_pass(
    name: str,
    seed: int,
    seconds: float,
    workdir: str,
    *,
    scale: str = "full",
    setups: int = SETUPS,
    restarts: int = 1,
    min_segments: int = MIN_SEGMENTS,
    tracer: Optional[Tracer] = None,
    observe: bool = False,
) -> Dict[str, Any]:
    """Run one pass; returns end-to-end values, detail, and check counts.

    With a *tracer* (already installed) the facade calls become root spans
    and ``measured_marks`` brackets the measured phase.
    """
    workload: Workload = WORKLOADS[name](scale, random.Random(seed))
    stream, reference = workload.stream, workload.reference
    relation = workload.relation
    check = Checker()

    preload = stream.preload()
    reference.apply(preload)

    # -- set-up: catalog build + preload, `setups` fresh builds, step by step ----
    setup_steps: List[List[int]] = []
    db: Any = None
    directory = ""
    for build in range(setups):
        if db is not None:
            _teardown(db, directory)
            # Drop the previous build before the next is timed, so every
            # build starts from the same heap and collector state.
            db = write = update = None
        directory = os.path.join(workdir, f"build-{build}")
        os.makedirs(directory)
        gc.collect()
        steps: List[int] = []
        setup_steps.append(steps)
        last = _now()

        def lap() -> None:
            nonlocal last
            now = _now()
            steps.append(now - last)
            last = now

        db = workload.build(directory, observe, lap)
        write, admitted = workload.writer(db)
        update = db.update_relation
        if tracer is not None:
            write = tracer.wrap(write, ROOT_WRITE, root=True)
            update = tracer.wrap(update, ROOT_UPDATE, root=True)
        _apply_untimed(preload, write, update, relation, lap)
    del preload
    # The same steps every time, or the fastest of each means nothing.
    assert len({len(steps) for steps in setup_steps}) == 1, "set-ups took different steps"
    measured_from = tracer.mark() if tracer is not None else None

    # -- measured phase ------------------------------------------------------------
    lookup, lookup_view = db.view_row, workload.lookup_view
    stats_before = db.stats
    counters = dict.fromkeys(GLOBAL_COUNTERS.counts, 0)
    latencies = array("q")
    segment_rate: List[float] = []
    segment_write_us: List[float] = []
    segment_query_us: List[float] = []
    reference_record_us: List[float] = []
    records = measured_ns = 0
    while measured_ns / 1e9 < seconds or len(segment_rate) < min_segments:
        ops, keys = stream.segment()
        t0 = _now()
        expected_records = reference.apply(ops)
        reference_record_us.append((_now() - t0) / 1e3 / expected_records)
        expected = [reference.lookup(key) for key in keys]
        segment_latencies: List[int] = []
        segment_records = update_ns = 0
        counters_before = GLOBAL_COUNTERS.snapshot()
        for op in ops:
            if op[0] == WRITE:
                payload = op[1]
                t0 = _now()
                result = write(payload)
                t1 = _now()
                segment_latencies.append(t1 - t0)
                segment_records += admitted(result)
            else:
                t0 = _now()
                update(relation, op[1], **op[2])
                update_ns += _now() - t0
        t0 = _now()
        got = [lookup(lookup_view, key) for key in keys]
        query_ns = _now() - t0
        for event, amount in GLOBAL_COUNTERS.diff(counters_before).items():
            counters[event] += amount

        write_ns = sum(segment_latencies) + update_ns
        measured_ns += write_ns + query_ns
        records += segment_records
        segment_rate.append(segment_records / (write_ns / 1e9))
        segment_write_us.append(median(segment_latencies) / 1e3)
        segment_query_us.append(query_ns / len(keys) / 1e3)
        latencies.extend(segment_latencies)
        check.attempted += len(ops)
        check.expect(
            segment_records == expected_records,
            lambda: f"segment admitted {segment_records} records, expected {expected_records}",
            count=0,
        )
        wrong = sum(
            1
            for row, want in zip(got, expected)
            if (row.values if row is not None else None) != want
        )
        check.attempted += len(keys)
        if wrong:
            check.failed += wrong
            check.first_failure = check.first_failure or (
                f"{wrong} of {len(keys)} lookups on {lookup_view!r} differ from the reference"
            )
    stats_after = db.stats
    measured_to = tracer.mark() if tracer is not None else None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 + _worker_hwm_mb()
    check.expect(
        counters["chronicle_read"] == 0,
        lambda: f"maintenance read the chronicle {counters['chronicle_read']} times",
        count=0,
    )

    # -- restart: persisted bytes -> a database equal to the reference ------------
    tail = workload.tail_ops()
    reference.apply(tail)
    _apply_untimed(tail, write, update, relation)
    view_rows = check.views(db, reference, "after the run")
    persisted = workload.persist(db, workdir, restarts)
    _teardown(db, directory)
    restart_s: List[float] = []
    replayed_batches = 0
    for copy in range(restarts):
        gc.collect()
        started = time.perf_counter()
        restarted = workload.restart(persisted, workdir, copy)
        restart_s.append(time.perf_counter() - started)
        check.views(restarted, reference, "after restart")
        if restarted.durability is not None:
            replayed_batches = restarted.durability.last_recovery.replayed_batches
        restarted.close()

    sorted_latencies = sorted(latencies)
    return {
        "values": {
            "setup_s": sum(map(min, zip(*setup_steps))) / 1e9,
            "ingest_records_per_s": fast(segment_rate, "higher"),
            "write_p50_us": fast(segment_write_us, "lower"),
            "peak_rss_mb": peak_rss_mb,
        },
        # Demoted from the end-to-end list (README.md): reported by the
        # traced run, without a bound.
        "query_p50_us": fast(segment_query_us, "lower"),
        "restart_s": median(restart_s),
        # Not a metric: how fast this box ran the reference's dict
        # reductions over the same inputs, so that two result files can be
        # told apart when the box, not the program, changed between them.
        "reference_us_per_record": fast(reference_record_us, "lower"),
        "attempted": check.attempted,
        "failed": check.failed,
        "first_failure": check.first_failure,
        "segments": len(segment_rate),
        "write_samples": len(latencies),
        "write_p99_us": sorted_latencies[int(0.99 * (len(sorted_latencies) - 1))] / 1e3,
        "records": records,
        "measured_marks": (measured_from, measured_to),
        "counters": counters,
        "stats": {
            key: stats_after[key] - stats_before.get(key, 0)
            for key in stats_after
            if isinstance(stats_after[key], (int, float))
        },
        "restart": {
            "replayed_batches": replayed_batches,
            "persisted_bytes": persisted["bytes"],
            "view_rows": view_rows,
        },
        "setup_runs_s": [sum(steps) / 1e9 for steps in setup_steps],
        "restart_runs_s": restart_s,
        "segment_records_per_s": segment_rate,
        "segment_write_p50_us": segment_write_us,
        "segment_query_us": segment_query_us,
    }
