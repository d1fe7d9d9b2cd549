"""Shared BENCH_*.json result files: schema v2 with machine fingerprint.

A benchmark history file at the repository root (``BENCH_e13.json``)
keeps one envelope, so an experiment's trajectory reads the same way
from run to run::

    {
      "schema": 2,
      "experiment": "E13 empirical IM-class conformance",
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
