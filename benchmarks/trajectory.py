"""Summarize alternating parent/change runs into one ``BENCH_e2e.json`` record.

Each input file holds the runs of one workload, one line per run::

    parent 3601 {"correct": true, "attempted": ..., "failed": 0, "metrics": {...}}
    change 3601 {...}
    change 3602 {...}
    parent 3602 {...}

The JSON is the last stdout line of ``benchmarks/e2e/run.py --workload W
--seed N --trace 0``.  A parent run and a change run with the same seed
form a pair.  Per end-to-end metric of ``BENCHMARK.json`` the record holds
the change's median and interquartile gap, the parent's, the change in
percent of the parent's median, and ``won``: the pairs in which the change
read better, ties counting for neither.

    python benchmarks/trajectory.py --pr N --kind simplicity --title "..." \\
        --run-seconds 8 bulk_process=bulk.txt atm_wide=atm.txt [--append BENCH_e2e.json]

The record is printed; ``--append`` also adds it to the file's ``records``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path
from statistics import median, quantiles
from typing import Any, Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")

Run = Dict[str, Any]


def read_runs(path: Path) -> Dict[str, Dict[int, Run]]:
    """``{side: {seed: run}}`` from one workload's file of run lines."""
    runs: Dict[str, Dict[int, Run]] = {side: {} for side in SIDES}
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip():
            continue
        side, seed, payload = line.split(None, 2)
        if side not in SIDES:
            raise ValueError(f"{path}:{number}: side must be parent or change, got {side!r}")
        if int(seed) in runs[side]:
            raise ValueError(f"{path}:{number}: a second {side} run of seed {seed}")
        runs[side][int(seed)] = json.loads(payload)
    return runs


def iqr(values: Sequence[float]) -> float:
    """Distance between the quartiles (``statistics.quantiles(n=4)``)."""
    if len(values) < 2:
        return 0.0
    low, _, high = quantiles(values, n=4)
    return high - low


def summarize(
    runs: Dict[str, Dict[int, Run]], directions: Dict[str, str]
) -> Dict[str, Any]:
    """One workload's entry: the pairs, their seeds, failed ops and metrics."""
    seeds = sorted(set(runs["parent"]) & set(runs["change"]))
    if not seeds:
        raise ValueError("no seed has both a parent and a change run")
    pairs: List[Tuple[Run, Run]] = [(runs["parent"][s], runs["change"][s]) for s in seeds]
    metrics: Dict[str, Any] = {}
    for name, better in directions.items():
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        sign = 1 if better == "higher" else -1
        won = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
        parent_median = median(parent)
        metrics[name] = {
            "median": round(median(change), 4),
            "iqr": round(iqr(change), 4),
            "parent_median": round(parent_median, 4),
            "parent_iqr": round(iqr(parent), 4),
            "change_pct": round(100 * (median(change) - parent_median) / parent_median, 1)
            if parent_median
            else None,
            "won": won,
        }
    return {
        "pairs": len(seeds),
        "seeds": seeds,
        "failed": sum(c["failed"] for _, c in pairs),
        "metrics": metrics,
    }


def render(value: Any, level: int = 0) -> str:
    """JSON in ``BENCH_e2e.json``'s layout: a list or object holding only
    scalars on one line, anything else one member per line, indented by one."""
    members = value.values() if isinstance(value, dict) else value
    if not isinstance(value, (dict, list)) or not any(
        isinstance(member, (dict, list)) for member in members
    ):
        return json.dumps(value, ensure_ascii=False)
    pad = " " * (level + 1)
    if isinstance(value, dict):
        lines = [f"{pad}{json.dumps(k, ensure_ascii=False)}: {render(v, level + 1)}"
                 for k, v in value.items()]
        opening, closing = "{", "}"
    else:
        lines = [pad + render(v, level + 1) for v in value]
        opening, closing = "[", "]"
    return opening + "\n" + ",\n".join(lines) + "\n" + " " * level + closing


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("inputs", nargs="+", metavar="WORKLOAD=FILE")
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--kind", required=True)
    parser.add_argument("--title", required=True)
    parser.add_argument("--run-seconds", type=int, required=True)
    parser.add_argument("--note", default="")
    parser.add_argument("--machine-note", default="")
    parser.add_argument("--append", type=Path, help="add the record to this BENCH_e2e.json")
    args = parser.parse_args(argv)

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    directions = {m["name"]: m["better"] for m in manifest["end_to_end"]}
    workloads = {}
    for item in args.inputs:
        workload, _, path = item.partition("=")
        if not path:
            parser.error(f"expected WORKLOAD=FILE, got {item!r}")
        workloads[workload] = summarize(read_runs(Path(path)), directions)
    record = {
        "pr": args.pr,
        "kind": args.kind,
        "title": args.title,
        "source": "alternating parent/change pairs",
        "machine": {
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "note": args.machine_note,
        },
        "run_seconds": args.run_seconds,
        "claim": None,
        "workloads": workloads,
        "reference_us_per_record": None,
        "note": args.note,
    }
    sys.stdout.write(render(record) + "\n")
    if args.append is not None:
        trajectory = json.loads(args.append.read_text())
        trajectory["records"].append(record)
        args.append.write_text(render(trajectory) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
