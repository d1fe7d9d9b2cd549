"""``BENCHMARK.json`` is the single source of names, units, directions, bounds.

The benchmark code computes values and hands them to :meth:`Manifest.metrics`,
which attaches the declared unit and fails the run when a value is missing,
undeclared, or not a finite number — so a metric cannot drift between the
file the driver reads and the code that measures.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, List, Mapping

#: benchmarks/e2e/manifest.py -> repo root.
ROOT = Path(__file__).resolve().parents[2]
MANIFEST_PATH = ROOT / "BENCHMARK.json"


class ManifestError(Exception):
    """The run and ``BENCHMARK.json`` disagree about what is measured."""


class Manifest:
    """The declared workloads and metrics."""

    def __init__(self, path: Path = MANIFEST_PATH) -> None:
        with open(path) as handle:
            document = json.load(handle)
        self.run_seconds: int = document["run_seconds"]
        self.workloads: List[str] = [w["name"] for w in document["workloads"]]
        self.why: Dict[str, str] = {w["name"]: w["why"] for w in document["workloads"]}
        self.end_to_end: Dict[str, Dict[str, Any]] = {
            m["name"]: m for m in document["end_to_end"]
        }
        self.per_layer: Dict[str, Dict[str, Any]] = {
            m["name"]: m for m in document["per_layer"]
        }

    def declared(self, trace: bool) -> Dict[str, Dict[str, Any]]:
        return self.per_layer if trace else self.end_to_end

    def check_workload(self, name: str) -> None:
        if name not in self.workloads:
            raise ManifestError(
                f"workload {name!r} is not declared in {MANIFEST_PATH.name} "
                f"(declared: {', '.join(self.workloads)})"
            )

    def metrics(self, values: Mapping[str, float], trace: bool) -> Dict[str, Dict[str, Any]]:
        """``{name: {"value", "unit"}}`` for exactly the declared metrics."""
        declared = self.declared(trace)
        missing = sorted(set(declared) - set(values))
        extra = sorted(set(values) - set(declared))
        if missing or extra:
            raise ManifestError(
                f"metrics differ from {MANIFEST_PATH.name}: "
                f"missing {missing}, undeclared {extra}"
            )
        out: Dict[str, Dict[str, Any]] = {}
        for name, spec in declared.items():
            value = values[name]
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ManifestError(f"metric {name!r} is not a finite number: {value!r}")
            out[name] = {"value": value, "unit": spec["unit"]}
        return out

    def worse_by(self, name: str, base: float, other: float) -> float:
        """How much worse *other* is than *base*, as a share of *base*.

        Positive means worse in the metric's declared direction.
        """
        if base == 0:
            return 0.0 if other == 0 else math.inf
        change = (other - base) / abs(base)
        return change if self.end_to_end[name]["better"] == "lower" else -change
