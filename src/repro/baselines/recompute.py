"""Full-recomputation baseline: the IM-C^k representative.

Proposition 3.1: relational algebra with grouping and aggregation, applied
to chronicles and relations, is in IM-C^k and *not* in IM-R^k — a view in
that language may require access to the whole chronicle on every append.
The simplest member of the class, and the one real systems fall back to,
is *recompute from scratch*: store the chronicle, and after each append
re-evaluate the view over everything stored.

:class:`RecomputeMaintainer` does exactly that for any expression the
batch evaluator handles (all of CA **plus** the extension operators
outside CA), making it both the Prop 3.1 baseline and the only general
maintainer for Theorem 4.3's forbidden operators.  Its per-append cost
necessarily grows with |C| — benchmark E1 plots it against the delta
engine's flat line.
"""

from __future__ import annotations

from typing import Mapping, Optional, Tuple

from ..algebra.ast import Node
from ..core.group import ChronicleGroup
from ..relational.algebra import Table
from ..relational.tuples import Row
from ..sca.summarize import Summary
from ..sca.view import evaluate_summary


class RecomputeMaintainer:
    """Maintains a summary view by recomputing it from the stored chronicle.

    The base chronicles must retain their history (``retention=None``) —
    the storage burden the chronicle model exists to avoid.

    Parameters
    ----------
    summary:
        Any summary over any expression the batch evaluator supports
        (including the outside-CA extension operators).
    """

    def __init__(self, summary: Summary) -> None:
        self.summary = summary
        self.expression: Node = summary.expression
        self._result: Optional[Table] = None
        self._recomputations = 0

    # -- maintenance --------------------------------------------------------------------

    def recompute(self) -> Table:
        """Re-evaluate the view from scratch over the stored chronicles."""
        result = evaluate_summary(self.summary)
        self._result = result
        self._recomputations += 1
        return result

    def on_event(self, group: ChronicleGroup, event: Mapping[str, Tuple[Row, ...]]) -> None:
        """Append listener: recompute after every append."""
        self.recompute()

    def attach(self, group: ChronicleGroup) -> None:
        """Subscribe to a group so every append triggers recomputation."""
        group.subscribe(self.on_event)

    # -- queries -------------------------------------------------------------------------

    @property
    def result(self) -> Table:
        """The current view contents (recomputing if never evaluated)."""
        if self._result is None:
            return self.recompute()
        return self._result

    @property
    def recomputation_count(self) -> int:
        return self._recomputations

    def rows(self):
        return iter(self.result.rows)

    def __iter__(self):
        return self.rows()

    def __len__(self) -> int:
        return len(self.result)

    def __repr__(self) -> str:
        return (
            f"RecomputeMaintainer({self.expression!r}, "
            f"recomputations={self._recomputations})"
        )
