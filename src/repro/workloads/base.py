"""Shared machinery for the synthetic transaction-stream generators.

The paper's evaluation substrate is a production AT&T transaction system
(75 GB/day of call records) that we cannot ship; these generators are the
documented substitution (DESIGN.md §3).  They produce realistically
skewed, seeded, reproducible record streams with the schemas the paper's
motivating applications use — credit cards, telephone calls, banking,
frequent flyer, stock trades, sensors.

Records are plain dicts matching a chronicle schema (sequence numbers are
stamped by the chronicle group at append time).
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterator, List, Optional, Tuple

SchemaSpec = List[Tuple[str, str]]


class ZipfChooser:
    """Zipf-skewed choice over ``population`` items.

    Real transaction streams are heavily skewed (a few hot accounts
    produce most records); a truncated Zipf with exponent *s* reproduces
    that.  Weights are precomputed so choice is O(log n) via
    ``random.choices``' internal bisect.
    """

    def __init__(self, population: int, s: float = 1.1, rng: Optional[random.Random] = None) -> None:
        if population <= 0:
            raise ValueError("population must be positive")
        self.population = population
        self._rng = rng if rng is not None else random.Random(0)
        weights = [1.0 / (rank ** s) for rank in range(1, population + 1)]
        total = sum(weights)
        self._cumulative: List[float] = []
        running = 0.0
        for weight in weights:
            running += weight / total
            self._cumulative.append(running)

    def choose(self) -> int:
        """A 0-based item index, Zipf-skewed toward small indices."""
        from bisect import bisect_left

        return bisect_left(self._cumulative, self._rng.random())


class Workload:
    """Base class: a seeded generator of chronicle records.

    Subclasses define ``CHRONICLE_SCHEMA`` (``(name, domain)`` pairs,
    without the sequence attribute) and implement :meth:`record`.
    """

    #: Chronicle payload attributes (the SEQ column is added by the group).
    CHRONICLE_SCHEMA: SchemaSpec = []
    #: Workload name used for chronicle naming.
    NAME = "workload"

    def __init__(self, seed: int = 7, **params: Any) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.params = params

    def record(self, index: int) -> Dict[str, Any]:
        """The *index*-th transaction record."""
        raise NotImplementedError

    def records(self, count: int, start: int = 0) -> Iterator[Dict[str, Any]]:
        """Generate *count* records starting at *start*."""
        for index in range(start, start + count):
            yield self.record(index)

    def chronicle_spec(self) -> SchemaSpec:
        """``(name, domain)`` pairs for ``create_chronicle``."""
        return list(self.CHRONICLE_SCHEMA)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(seed={self.seed})"
