"""The standard incrementally computable aggregation functions.

MIN, MAX, SUM and COUNT are the paper's examples of functions computable
in O(n) per group and O(1) per increment.  AVG and VAR/STDEV are included
as *decomposable* aggregates: their accumulators are tuples of SUM-like
parts, each maintained in O(1), finalized arithmetically.  FIRST and LAST
exploit chronicle ordering (appends arrive in sequence-number order).

All state values are plain tuples/numbers so that persistent views can
store one state per group row.
"""

from __future__ import annotations

import math
from typing import Any, Optional, Tuple

from .base import IncrementalAggregate, identity_finalize


class Count(IncrementalAggregate):
    """COUNT(*) — number of rows in the group."""

    name = "COUNT"
    invertible = True
    takes_argument = False

    def output_domain(self, input_domain: Any) -> Any:
        from ..relational.types import INT

        return INT

    def initial(self) -> int:
        return 0

    def step(self, state: int, value: Any) -> int:
        return state + 1

    def merge(self, left: int, right: int) -> int:
        return left + right

    def unstep(self, state: int, value: Any) -> int:
        return state - 1

    def unmerge(self, state: int, removed: int) -> int:
        return state - removed

    finalize = identity_finalize


class Sum(IncrementalAggregate):
    """SUM(attr) — sum of the attribute over the group (0 when empty)."""

    name = "SUM"
    invertible = True

    def initial(self) -> Any:
        return 0

    def step(self, state: Any, value: Any) -> Any:
        return state + value

    def merge(self, left: Any, right: Any) -> Any:
        return left + right

    def unstep(self, state: Any, value: Any) -> Any:
        return state - value

    def unmerge(self, state: Any, removed: Any) -> Any:
        return state - removed

    finalize = identity_finalize


class Min(IncrementalAggregate):
    """MIN(attr).  Incremental under insert-only streams; not invertible."""

    name = "MIN"
    invertible = False

    def initial(self) -> Optional[Any]:
        return None

    def step(self, state: Optional[Any], value: Any) -> Any:
        if state is None or value < state:
            return value
        return state

    def merge(self, left: Optional[Any], right: Optional[Any]) -> Optional[Any]:
        if left is None:
            return right
        if right is None:
            return left
        return left if left <= right else right

    finalize = identity_finalize


class Max(IncrementalAggregate):
    """MAX(attr).  Incremental under insert-only streams; not invertible."""

    name = "MAX"
    invertible = False

    def initial(self) -> Optional[Any]:
        return None

    def step(self, state: Optional[Any], value: Any) -> Any:
        if state is None or value > state:
            return value
        return state

    def merge(self, left: Optional[Any], right: Optional[Any]) -> Optional[Any]:
        if left is None:
            return right
        if right is None:
            return left
        return left if left >= right else right

    finalize = identity_finalize


class Avg(IncrementalAggregate):
    """AVG(attr), decomposed into (sum, count) — both O(1) per step."""

    name = "AVG"
    invertible = True

    def output_domain(self, input_domain: Any) -> Any:
        from ..relational.types import FLOAT

        return FLOAT

    def initial(self) -> Tuple[Any, int]:
        return (0, 0)

    def step(self, state: Tuple[Any, int], value: Any) -> Tuple[Any, int]:
        return (state[0] + value, state[1] + 1)

    def merge(self, left: Tuple[Any, int], right: Tuple[Any, int]) -> Tuple[Any, int]:
        return (left[0] + right[0], left[1] + right[1])

    def unstep(self, state: Tuple[Any, int], value: Any) -> Tuple[Any, int]:
        return (state[0] - value, state[1] - 1)

    def unmerge(self, state: Tuple[Any, int], removed: Tuple[Any, int]) -> Tuple[Any, int]:
        return (state[0] - removed[0], state[1] - removed[1])

    def finalize(self, state: Tuple[Any, int]) -> Optional[float]:
        total, count = state
        if count == 0:
            return None
        return total / count


class Var(IncrementalAggregate):
    """Population variance, decomposed into (sum, sum-of-squares, count)."""

    name = "VAR"
    invertible = True

    def output_domain(self, input_domain: Any) -> Any:
        from ..relational.types import FLOAT

        return FLOAT

    def initial(self) -> Tuple[Any, Any, int]:
        return (0, 0, 0)

    def step(self, state: Tuple[Any, Any, int], value: Any) -> Tuple[Any, Any, int]:
        return (state[0] + value, state[1] + value * value, state[2] + 1)

    def merge(self, left: Tuple[Any, Any, int], right: Tuple[Any, Any, int]) -> Tuple[Any, Any, int]:
        return (left[0] + right[0], left[1] + right[1], left[2] + right[2])

    def unstep(self, state: Tuple[Any, Any, int], value: Any) -> Tuple[Any, Any, int]:
        return (state[0] - value, state[1] - value * value, state[2] - 1)

    def unmerge(self, state: Tuple[Any, Any, int],
                removed: Tuple[Any, Any, int]) -> Tuple[Any, Any, int]:
        return (state[0] - removed[0], state[1] - removed[1], state[2] - removed[2])

    def finalize(self, state: Tuple[Any, Any, int]) -> Optional[float]:
        total, squares, count = state
        if count == 0:
            return None
        mean = total / count
        # Clamp tiny negative values produced by floating-point cancellation.
        return max(squares / count - mean * mean, 0.0)


class Stdev(Var):
    """Population standard deviation (square root of :class:`Var`)."""

    name = "STDEV"

    def finalize(self, state: Tuple[Any, Any, int]) -> Optional[float]:
        variance = super().finalize(state)
        if variance is None:
            return None
        return math.sqrt(variance)


class First(IncrementalAggregate):
    """FIRST(attr) — value from the earliest row (chronicle order).

    The accumulator is ``(has_value, value)`` — a plain tuple, so view
    checkpoints stay JSON-serializable.
    """

    name = "FIRST"
    mergeable = False  # merge order is not derivable from the state alone
    invertible = False

    def initial(self) -> Tuple[bool, Any]:
        return (False, None)

    def step(self, state: Tuple[bool, Any], value: Any) -> Tuple[bool, Any]:
        return state if state[0] else (True, value)

    def merge(self, left: Tuple[bool, Any], right: Tuple[bool, Any]) -> Tuple[bool, Any]:
        return left if left[0] else right

    def finalize(self, state: Tuple[bool, Any]) -> Optional[Any]:
        return state[1] if state[0] else None


class Last(IncrementalAggregate):
    """LAST(attr) — value from the latest row (chronicle order).

    Accumulator: ``(has_value, value)``, as for :class:`First`.
    """

    name = "LAST"
    mergeable = False
    invertible = False

    def initial(self) -> Tuple[bool, Any]:
        return (False, None)

    def step(self, state: Tuple[bool, Any], value: Any) -> Tuple[bool, Any]:
        return (True, value)

    def merge(self, left: Tuple[bool, Any], right: Tuple[bool, Any]) -> Tuple[bool, Any]:
        return right if right[0] else left

    def finalize(self, state: Tuple[bool, Any]) -> Optional[Any]:
        return state[1] if state[0] else None


#: Shared singleton instances (the aggregates are stateless).
COUNT = Count()
SUM = Sum()
MIN = Min()
MAX = Max()
AVG = Avg()
VAR = Var()
STDEV = Stdev()
FIRST = First()
LAST = Last()
