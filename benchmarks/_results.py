"""Shared BENCH_*.json result files: schema v2 with machine fingerprint.

Benchmark history files at the repository root (``BENCH_e13.json``,
``BENCH_e14.json``) share one envelope so every experiment's trajectory
reads the same way::

    {
      "schema": 2,
      "experiment": "E14 sharded maintenance",
      "runs": [
        {
          "timestamp": "2026-08-06T12:00:00",
          "machine": {"platform": ..., "python": ..., "cpus": ...},
          "trials": 3,
          ...experiment-specific payload...
        }
      ]
    }

Absolute numbers are machine-dependent, so every run carries a machine
fingerprint — a regression hunt can then split the history by machine
instead of chasing a "regression" that is really a hardware change.

Schema v1 files (no ``"schema"`` key) are migrated in place on load: the
envelope gains ``"schema": 2`` and old runs are kept verbatim (they simply
lack ``machine``/``trials``, which readers must treat as unknown).
"""

import json
import os
import platform
import time

SCHEMA_VERSION = 2


def machine_fingerprint():
    """Coarse identity of the machine the numbers came from."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


#: Fingerprint axes that make two runs' absolute numbers comparable.
#: ``cpus`` matters most: a 1-core runner and a 4-core runner produce
#: legitimately different parallel speedups, and a regression gate must
#: never compare across that boundary.
COMPARABLE_AXES = ("machine", "cpus")


def comparable_runs(history, fingerprint=None, **payload_keys):
    """The subset of *history*'s runs a regression gate may compare against.

    A run qualifies when its machine fingerprint matches *fingerprint*
    (default: this machine) on every :data:`COMPARABLE_AXES` axis and its
    payload carries every ``payload_keys`` item verbatim (e.g.
    ``shards=4`` or ``executor="process"``).  Schema-v1 runs with no
    fingerprint are excluded — their provenance is unknown.
    """
    if fingerprint is None:
        fingerprint = machine_fingerprint()
    matched = []
    for run in history.get("runs", []):
        machine = run.get("machine")
        if machine is None:
            continue
        if any(machine.get(axis) != fingerprint.get(axis) for axis in COMPARABLE_AXES):
            continue
        if any(run.get(key) != value for key, value in payload_keys.items()):
            continue
        matched.append(run)
    return matched


def load_history(path, experiment):
    """Load (and, for v1 files, migrate) a benchmark history file."""
    if not os.path.exists(path):
        return {"schema": SCHEMA_VERSION, "experiment": experiment, "runs": []}
    with open(path) as handle:
        history = json.load(handle)
    if "schema" not in history:  # v1: {"experiment", "runs"} only
        history = {
            "schema": SCHEMA_VERSION,
            "experiment": history.get("experiment", experiment),
            "runs": history.get("runs", []),
        }
    return history


def append_run(history, payload):
    """Stamp *payload* with timestamp + machine and append it; returns it."""
    run = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "machine": machine_fingerprint(),
    }
    run.update(payload)
    history["runs"].append(run)
    return run


def save_history(path, history):
    with open(path, "w") as handle:
        json.dump(history, handle, indent=2)
        handle.write("\n")
