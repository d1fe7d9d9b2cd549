"""Where should shard maintenance run?  Alternating runs of one stream.

Implementation experiment (no paper claim).  The stream and catalog are
the ``bulk_process`` workload's (``benchmarks/e2e``): 41 account-banded
views, ``ingest`` windows of 96 x 6 records, Zipf 1.1 accounts.  Each
*mode* is ``serial`` (the plain engine) or ``sharded:<executor>:<shards>``;
every run is a fresh interpreter that builds the catalog, preloads three
windows (worker spawn and replica install happen there, untimed) and then
times ``ingest`` over the measured windows.  Runs of the modes alternate,
so drift of the box lands on every mode alike.

    python benchmarks/bench_sharded_executors.py                 # the docs table
    python benchmarks/bench_sharded_executors.py --runs 16 \\
        --modes sharded:serial:2,sharded:process:2

Prints, per mode, the median records/s, the interquartile gap, and how
often the mode won its round.  ``--root`` measures another checkout
(used to compare against a parent commit).  docs/performance.md holds the
numbers of record.
"""

from __future__ import annotations

import argparse
import os
import random
import subprocess
import sys
import time
from statistics import median, quantiles
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_MODES = "serial,sharded:serial:2,sharded:process:2"
PRELOAD_WINDOWS = 3


def measure(mode: str, seed: int, accounts: int, windows: int) -> float:
    """One run in this interpreter: records per second over *windows*."""
    from benchmarks.e2e import streams, workloads
    from repro import DatabaseConfig

    if mode == "serial":
        config = DatabaseConfig()
    else:
        _, executor, shards = mode.split(":")
        config = DatabaseConfig(engine="sharded", executor=executor, shards=int(shards))
    stream = streams.BankingStream(
        random.Random(seed),
        accounts=accounts,
        skew=1.1,
        batch=6,
        batches_per_write=96,
        writes_per_segment=windows,
        preload_writes=PRELOAD_WINDOWS,
        lookups=0,
    )
    preload = [op[1] for op in stream.preload()]
    measured = [op[1] for op in stream.segment()[0]]
    db = workloads._banded_catalog(config, lambda: None)
    try:
        for window in preload:
            db.ingest("transactions", window)
        records = 0
        started = time.perf_counter()
        for window in measured:
            records += db.ingest("transactions", window)
        elapsed = time.perf_counter() - started
    finally:
        db.close()
    return records / elapsed


def spread(values: List[float]) -> float:
    low, _, high = quantiles(values, n=4)
    return high - low


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--modes", default=DEFAULT_MODES)
    parser.add_argument("--runs", type=int, default=8, help="runs per mode")
    parser.add_argument("--accounts", type=int, default=256)
    parser.add_argument("--windows", type=int, default=120, help="measured windows per run")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--root", default=os.path.dirname(HERE), help="checkout to measure")
    parser.add_argument("--one", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one:
        sys.path[:0] = [args.root, os.path.join(args.root, "src")]
        print(measure(args.one, args.seed, args.accounts, args.windows))
        return
    modes = args.modes.split(",")
    results: Dict[str, List[float]] = {mode: [] for mode in modes}
    wins = dict.fromkeys(modes, 0)
    for run in range(args.runs):
        order = modes if run % 2 == 0 else modes[::-1]
        for mode in order:
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--one", mode,
                 "--seed", str(args.seed + run), "--accounts", str(args.accounts),
                 "--windows", str(args.windows), "--root", args.root],
                check=True, capture_output=True, text=True,
            )
            results[mode].append(float(out.stdout.split()[-1]))
        wins[max(modes, key=lambda mode: results[mode][-1])] += 1
        print(f"run {run + 1}: " + "  ".join(f"{m}={results[m][-1]:,.0f}" for m in modes), flush=True)
    print(f"\n{'mode':<22}{'median rec/s':>14}{'IQ gap':>10}{'wins':>8}")
    for mode in modes:
        values = results[mode]
        print(f"{mode:<22}{median(values):>14,.0f}{spread(values):>10,.0f}{wins[mode]:>5}/{args.runs}")


if __name__ == "__main__":
    main()
