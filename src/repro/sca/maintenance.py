"""Wiring append events into persistent-view maintenance.

One append event (a batch of rows at a single fresh sequence number,
possibly across several chronicles of a group) becomes one
``{chronicle_name: Delta}`` mapping, shared by every view that needs
maintaining.  :func:`attach_view` is the minimal wiring for a single
view; multi-view databases go through the
:class:`~repro.views.registry.ViewRegistry`, which adds affected-view
filtering (Section 5.2).
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Tuple

from ..core.delta import Delta
from ..core.group import ChronicleGroup
from ..obs import runtime as obs_runtime
from ..relational.tuples import Row
from .view import PersistentView


def event_deltas(
    group: ChronicleGroup, event: Mapping[str, Tuple[Row, ...]]
) -> Dict[str, Delta]:
    """Convert one append event into per-chronicle deltas.

    An event's rows per chronicle are already a set: the group
    deduplicated each admitted batch, and a coalesced window joins
    batches with different sequence numbers.
    """
    deltas: Dict[str, Delta] = {}
    for name, rows in event.items():
        if rows:
            deltas[name] = Delta.unchecked(group[name].schema, rows)
    return deltas


def attach_view(
    view: PersistentView, group: ChronicleGroup
) -> Callable[[ChronicleGroup, Dict[str, Tuple[Row, ...]]], None]:
    """Subscribe a single view to a group's append events.

    The view maintains itself through its own compiled plan
    (:meth:`PersistentView.apply_event`); sharing subexpressions across
    views needs the :class:`~repro.views.registry.ViewRegistry`.
    Returns the listener so callers can later
    :meth:`~repro.core.group.ChronicleGroup.unsubscribe` it.
    """

    def listener(event_group: ChronicleGroup, event: Dict[str, Tuple[Row, ...]]) -> None:
        deltas = event_deltas(event_group, event)
        if not deltas:
            return
        obs = obs_runtime.ACTIVE
        if obs is not None:
            with obs.tracer.span("maintain", view=view.name, engine="compiled") as span:
                span.attrs["rows"] = view.apply_event(deltas)
        else:
            view.apply_event(deltas)

    group.subscribe(listener)
    return listener
