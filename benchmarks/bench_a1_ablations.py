"""A1 — ablations of this implementation's design choices.

Three knobs DESIGN.md calls out, each measured on/off:

1. **view-state index structure** — B+-tree (the paper's O(log |V|)
   locate, ordered scans) vs unique hash index (expected O(1), no
   ordered access).  Expected: the hash index wins on probes by the
   log factor, B+-tree probes grow with log |V|.
2. **per-event delta sharing** — N views, each built independently
   over a structurally equal filtered scan, maintained each by its own
   standalone plan (``attach_view``: a one-view registry each, nothing
   shared) vs by one registry, whose interner merges the N subtrees into one node with
   one delta per event.  Expected: without sharing the selection runs N
   times per append; with sharing once.
3. **compiler selection pushdown** — the same selective joined view
   compiled with the chronicle-conjunct pushdown enabled (normal) vs
   simulated off (selection above the join), measured by the §5.2
   prefilter's skip rate.  Expected: pushdown lets the prefilter skip
   non-matching appends; without it every append propagates.
"""

import sys

import pytest

from repro.aggregates import COUNT, SUM, spec
from repro.algebra.ast import scan
from repro.complexity.counters import GLOBAL_COUNTERS
from repro.complexity.harness import format_table
from repro.core.group import ChronicleGroup
from repro.relational.predicate import attr_cmp, attr_eq
from repro.views.registry import attach_view
from repro.sca.summarize import GroupBySummary
from repro.sca.view import PersistentView
from repro.storage.hash_index import HashIndex
from repro.views.registry import ViewRegistry

from _common import make_customers, make_group


# -- 1: state index structure ------------------------------------------------------


def _state_index_probes(groups, use_hash):
    group, calls = make_group(retention=0)
    state_index = HashIndex(unique=True) if use_hash else None
    view = PersistentView(
        "v",
        GroupBySummary(scan(calls), ["acct"], [spec(SUM, "mins")]),
        state_index=state_index,
    )
    attach_view(view, group)
    with GLOBAL_COUNTERS.disabled():
        for acct in range(groups):
            group.append(calls, {"acct": acct, "mins": 1})
    with GLOBAL_COUNTERS.measure() as cost:
        group.append(calls, {"acct": groups // 2, "mins": 1})
    return cost["index_probe"]


# -- 2: delta sharing ---------------------------------------------------------------


def _sharing_work(view_count, share):
    group, calls = make_group(retention=0)
    registry = ViewRegistry(prefilter=False)
    registry.attach(group)
    for index in range(view_count):
        node = scan(calls).select(attr_cmp("mins", ">=", 0))
        view = PersistentView(f"v{index}", GroupBySummary(node, ["acct"], [spec(COUNT)]))
        if share:
            registry.register(view)
        else:
            attach_view(view, group)
    group.append(calls, {"acct": 0, "mins": 1})  # warm up
    with GLOBAL_COUNTERS.measure() as cost:
        group.append(calls, {"acct": 1, "mins": 1})
    return cost["tuple_op"]


# -- 3: compiler pushdown -----------------------------------------------------------


def _pushdown_skip_rate(pushdown, appends=1000):
    group = ChronicleGroup("g")
    calls = group.create_chronicle(
        "calls", [("acct", "INT"), ("mins", "INT")], retention=0
    )
    customers = make_customers(64)
    registry = ViewRegistry(prefilter=True)
    registry.attach(group)
    base = scan(calls)
    if pushdown:
        node = base.select(attr_eq("acct", 1)).keyjoin(customers, [("acct", "acct")])
    else:
        node = base.keyjoin(customers, [("acct", "acct")]).select(attr_eq("acct", 1))
    view = registry.register(
        PersistentView("selective", GroupBySummary(node, ["state"], [spec(COUNT)]))
    )
    for i in range(appends):
        group.append(calls, {"acct": i % 64, "mins": 1})
    return 1 - view.maintenance_count / appends


def run_report() -> str:
    v_sizes = [100, 10_000, 1_000_000 // 10]
    index_rows = [
        [size, _state_index_probes(size, use_hash=False),
         _state_index_probes(size, use_hash=True)]
        for size in v_sizes
    ]
    share_counts = [1, 8, 32]
    share_rows = [
        [count, _sharing_work(count, share=False), _sharing_work(count, share=True)]
        for count in share_counts
    ]
    push_rows = [
        ["on", f"{_pushdown_skip_rate(True):.1%}"],
        ["off", f"{_pushdown_skip_rate(False):.1%}"],
    ]
    return (
        "== A1  implementation ablations ==\n"
        "1) view-state index: locate probes per append vs |V|\n"
        + format_table(["|V| groups", "B+-tree probes", "hash probes"], index_rows)
        + "\n\n2) delta sharing: tuple work per append vs #views over one subtree\n"
        + format_table(["#views", "work (no sharing)", "work (shared)"], share_rows)
        + "\n\n3) compiler pushdown: prefilter skip rate for a selective joined view\n"
        + format_table(["pushdown", "appends skipped"], push_rows)
        + "\n"
    )


def test_a1_hash_state_index_beats_btree_probes():
    btree = _state_index_probes(10_000, use_hash=False)
    hashed = _state_index_probes(10_000, use_hash=True)
    assert hashed < btree


def test_a1_hash_state_index_correct():
    group, calls = make_group(retention=0)
    view = PersistentView(
        "v",
        GroupBySummary(scan(calls), ["acct"], [spec(SUM, "mins")]),
        state_index=HashIndex(unique=True),
    )
    attach_view(view, group)
    for i in range(200):
        group.append(calls, {"acct": i % 7, "mins": i})
    assert view.value((3,), "sum_mins") == sum(i for i in range(200) if i % 7 == 3)


def test_a1_sharing_flattens_selection_cost():
    no_share = _sharing_work(32, share=False)
    shared = _sharing_work(32, share=True)
    # Unshared: 32 selections + 32 folds; shared: 1 selection + 32 folds.
    assert no_share >= shared + 25


def test_a1_pushdown_enables_prefilter():
    assert _pushdown_skip_rate(True, appends=256) > 0.9
    assert _pushdown_skip_rate(False, appends=256) == 0.0


@pytest.mark.parametrize("use_hash", [False, True])
def test_a1_state_index_append(benchmark, use_hash):
    group, calls = make_group(retention=0)
    view = PersistentView(
        "v",
        GroupBySummary(scan(calls), ["acct"], [spec(SUM, "mins")]),
        state_index=HashIndex(unique=True) if use_hash else None,
    )
    attach_view(view, group)
    with GLOBAL_COUNTERS.disabled():
        for acct in range(50_000):
            group.append(calls, {"acct": acct, "mins": 1})
    counter = [0]

    def action():
        counter[0] += 1
        group.append(calls, {"acct": counter[0] % 50_000, "mins": 1})

    benchmark(action)


if __name__ == "__main__":
    sys.stdout.write(run_report())
