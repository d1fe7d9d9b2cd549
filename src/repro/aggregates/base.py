"""The incremental-aggregation framework.

The paper (Preliminaries) admits only aggregation functions that are
*incrementally computable*, or decomposable into incrementally computable
functions: computable in O(n) over a group of size n and in O(1) per
increment of size 1.  We model that contract explicitly:

* :class:`IncrementalAggregate` — carries an accumulator through
  ``initial() → step(state, value) → finalize(state)``; ``merge`` combines
  two accumulators (needed by the cyclic-buffer optimizer of Section 5.1
  and by decomposed aggregates).
* ``invertible`` — whether ``unstep`` can remove a value in O(1); SUM and
  COUNT are, MIN/MAX are not.  Chronicles are insert-only so inversion is
  never required for plain SCA maintenance, but the moving-window
  optimizer exploits it when present.

An :class:`AggregateSpec` pairs an aggregate with its input attribute and
output name, as written in ``GROUPBY(C, GL, AL)`` aggregation lists.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple

from ..complexity.counters import GLOBAL_COUNTERS
from ..errors import AggregateError, NotIncrementalError


def identity_finalize(self: "IncrementalAggregate", state: Any) -> Any:
    """``finalize`` of an aggregate whose accumulator *is* its result.

    Assigned as the ``finalize`` attribute of such aggregate classes, so a
    caller can tell by identity (``type(f).finalize is identity_finalize``)
    that the call may be skipped; a subclass that overrides ``finalize``
    stops matching by construction.
    """
    return state


class IncrementalAggregate:
    """Base class for incrementally computable aggregation functions.

    Subclasses define the class attributes ``name``, ``mergeable`` and
    ``invertible`` and implement the state-transition methods.  States
    must be treated as opaque by callers and must be cheaply copyable
    values (tuples/numbers), because view maintenance stores one state per
    group row.
    """

    #: Canonical upper-case name ("SUM", "COUNT", ...).
    name: str = "?"
    #: Whether two partial states can be merged (decomposability).
    mergeable: bool = True
    #: Whether a value can be removed from the state in O(1).
    invertible: bool = False
    #: Whether the aggregate consumes an attribute (COUNT(*) does not).
    takes_argument: bool = True

    def initial(self) -> Any:
        """The accumulator for the empty group."""
        raise NotImplementedError

    def step(self, state: Any, value: Any) -> Any:
        """Fold one value into the accumulator — must be O(1)."""
        raise NotImplementedError

    def merge(self, left: Any, right: Any) -> Any:
        """Combine two accumulators (decomposed evaluation)."""
        raise NotImplementedError

    def unstep(self, state: Any, value: Any) -> Any:
        """Remove one previously-stepped value (invertible aggregates)."""
        raise NotImplementedError(f"{self.name} is not invertible")

    def unmerge(self, state: Any, removed: Any) -> Any:
        """Undo a previous ``merge(state', removed)`` (invertible only).

        The cyclic-buffer window optimizer (Section 5.1) uses this to
        evict a whole bucket's partial state in O(1).
        """
        raise NotImplementedError(f"{self.name} is not invertible")

    def finalize(self, state: Any) -> Any:
        """The aggregate's visible result for the accumulator."""
        raise NotImplementedError

    def output_domain(self, input_domain: Any) -> Any:
        """Domain of the result attribute given the input's domain.

        Defaults to the input domain (MIN/MAX/SUM preserve it); COUNT and
        the ratio aggregates override.  *input_domain* may be ``None``
        for argument-less aggregates.
        """
        if input_domain is None:
            from ..relational.types import FLOAT

            return FLOAT
        return input_domain

    # -- batch contract ------------------------------------------------------------

    def compute(self, values: Any) -> Any:
        """O(n) batch evaluation: fold every value and finalize."""
        state = self.initial()
        for value in values:
            GLOBAL_COUNTERS.count("aggregate_step")
            state = self.step(state, value)
        return self.finalize(state)

    def __repr__(self) -> str:
        return f"<aggregate {self.name}>"


class AggregateSpec:
    """One entry of an aggregation list: ``function(attribute) AS output``.

    Parameters
    ----------
    function:
        The :class:`IncrementalAggregate` instance.
    attribute:
        Input attribute name; ``None`` only for argument-less aggregates
        (COUNT(*)).
    output:
        Result attribute name; defaults to ``func_attr`` / ``func``.
    """

    __slots__ = ("function", "attribute", "output")

    def __init__(
        self,
        function: IncrementalAggregate,
        attribute: Optional[str] = None,
        output: Optional[str] = None,
    ) -> None:
        if attribute is None and function.takes_argument:
            raise AggregateError(f"{function.name} requires an input attribute")
        self.function = function
        self.attribute = attribute
        if output is None:
            lower = function.name.lower()
            output = f"{lower}_{attribute}" if attribute else lower
        self.output = output

    def argument(self, row: Any) -> Any:
        """Extract this spec's input value from a row (1 for COUNT(*))."""
        if self.attribute is None:
            return 1
        return row[self.attribute]

    def require_incremental(self) -> None:
        """Raise unless the function honours the O(1)-step contract.

        Every built-in aggregate does; the hook exists so user-defined
        functions can declare themselves non-incremental and be rejected
        by SCA (Definition 4.3).
        """
        if not getattr(self.function, "incremental", True):
            raise NotIncrementalError(
                f"aggregate {self.function.name} is not incrementally computable "
                f"and cannot appear in a summarized chronicle algebra view"
            )

    def __repr__(self) -> str:
        arg = self.attribute if self.attribute is not None else "*"
        return f"{self.function.name}({arg}) AS {self.output}"


def spec(function: IncrementalAggregate, attribute: Optional[str] = None,
         output: Optional[str] = None) -> AggregateSpec:
    """Shorthand constructor for :class:`AggregateSpec`."""
    return AggregateSpec(function, attribute, output)


# A "batch" aggregate wrapper for testing the SCA rejection path ------------------


class NonIncrementalAggregate(IncrementalAggregate):
    """An aggregate that declares itself non-incremental.

    Wraps an arbitrary batch function (e.g. MEDIAN).  Usable in the
    general relational-algebra baseline but rejected by SCA.
    """

    incremental = False
    mergeable = False

    def __init__(self, name: str, batch: Callable[[Tuple[Any, ...]], Any]) -> None:
        self.name = name.upper()
        self._batch = batch

    def initial(self) -> Tuple[Any, ...]:
        return ()

    def step(self, state: Tuple[Any, ...], value: Any) -> Tuple[Any, ...]:
        # Keeping every value is exactly what makes this non-incremental:
        # the state is O(n), violating the paper's O(1)-per-step contract.
        return state + (value,)

    def merge(self, left: Tuple[Any, ...], right: Tuple[Any, ...]) -> Tuple[Any, ...]:
        return left + right

    def finalize(self, state: Tuple[Any, ...]) -> Any:
        return self._batch(state)
