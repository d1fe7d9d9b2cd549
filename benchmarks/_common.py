"""Shared builders for the experiment benchmarks (see DESIGN.md §6).

Every experiment Exx certifies one formal claim of the paper.  Each
benchmark module provides

* pytest-benchmark timing tests (``pytest benchmarks/ --benchmark-only``);
* a ``run_report()`` returning the experiment's printed table + fitted
  complexity models (the paper-shaped deliverable, collected into
  EXPERIMENTS.md by ``benchmarks/run_all.py`` or ``python <module>``).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from repro.aggregates import COUNT, SUM, spec
from repro.algebra.ast import Node
from repro.complexity.counters import GLOBAL_COUNTERS
from repro.core.group import ChronicleGroup
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.views.registry import attach_view
from repro.sca.summarize import GroupBySummary
from repro.sca.view import PersistentView

CALL_SCHEMA = [("acct", "INT"), ("mins", "INT")]


def make_group(retention: Optional[int] = 0) -> Tuple[ChronicleGroup, Any]:
    """A group with one ``calls`` chronicle (unstored by default)."""
    group = ChronicleGroup("bench")
    calls = group.create_chronicle("calls", CALL_SCHEMA, retention=retention)
    return group, calls


def make_customers(size: int, ordered: bool = False) -> Relation:
    """A customers relation with a unique index on acct.

    With ``ordered=False`` the uniqueness comes from the primary-key hash
    index (expected-O(1) probes); with ``ordered=True`` the relation has
    *only* a unique B+-tree index, so key-join probes cost O(log |R|) —
    the IM-log(R) regime the paper's formulas charge for.
    """
    if ordered:
        customers = Relation(
            "customers", Schema.build(("acct", "INT"), ("state", "STR"))
        )
        customers.create_index(["acct"], ordered=True, unique=True)
    else:
        customers = Relation(
            "customers",
            Schema.build(("acct", "INT"), ("state", "STR"), key=["acct"]),
        )
    for acct in range(size):
        customers.insert({"acct": acct, "state": "NJ" if acct % 2 else "NY"})
    return customers


def sum_view(node: Node, grouping: List[str], name: str = "v") -> PersistentView:
    """A SUM+COUNT persistent view over *node*."""
    return PersistentView(
        name, GroupBySummary(node, grouping, [spec(SUM, "mins"), spec(COUNT)])
    )


def attach(view: PersistentView, group: ChronicleGroup) -> PersistentView:
    attach_view(view, group)
    return view


def preload(group: ChronicleGroup, calls: Any, count: int, accts: int = 64) -> None:
    """Append *count* records without measuring."""
    with GLOBAL_COUNTERS.disabled():
        base = calls.appended_count
        for i in range(count):
            group.append(calls, {"acct": (base + i) % accts, "mins": 1})


def one_append(group: ChronicleGroup, calls: Any, acct: int = 0) -> Callable[[], None]:
    """A per-append action closure for timing."""

    def action() -> None:
        group.append(calls, {"acct": acct, "mins": 1})

    return action
