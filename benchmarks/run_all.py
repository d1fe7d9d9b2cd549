"""Run every experiment report and print the consolidated results.

Usage:  python benchmarks/run_all.py [--quick]

Each experiment Exx regenerates the empirical analogue of one formal
claim of the paper (see DESIGN.md §6).  The output of this script is the
data behind EXPERIMENTS.md.
"""

from __future__ import annotations

import importlib
import sys
import time

MODULES = [
    "bench_e1_proposition31",
    "bench_e2_ca_independence",
    "bench_e3_uj_scaling",
    "bench_e4_sca_maintenance",
    "bench_e5_im_classes",
    "bench_e6_maximality",
    "bench_e7_query_latency",
    "bench_e8_moving_windows",
    "bench_e9_view_filtering",
    "bench_e10_batch_incremental",
    "bench_e11_throughput",
    "bench_e13_conformance",
    "bench_e14_sharded",
    "bench_e17_durability",
    "bench_a1_ablations",
]


def main() -> None:
    started = time.perf_counter()
    for name in MODULES:
        module = importlib.import_module(name)
        module_start = time.perf_counter()
        sys.stdout.write(module.run_report())
        sys.stdout.write(
            f"   [{name}: {time.perf_counter() - module_start:.1f}s]\n\n"
        )
        sys.stdout.flush()
    sys.stdout.write(
        f"all experiments completed in {time.perf_counter() - started:.1f}s\n"
    )


if __name__ == "__main__":
    sys.path.insert(0, __file__.rsplit("/", 1)[0])
    main()
