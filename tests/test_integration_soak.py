"""Integration soak: every feature in one long mixed scenario.

A telecom-flavoured database runs thousands of mixed operations —
appends, simultaneous appends, proactive relation updates, periodic
windows, HAVING views, checkpoint/restore mid-stream — over an unstored
chronicle, continuously checking the invariants:

* views equal an independently maintained Python-dict shadow model;
* the chronicle truly stores nothing;
* over a stored history, the routed views equal the batch oracle;
* a mid-stream checkpoint restores into an identical database.
"""

import io
import random

import pytest

from repro.complexity.counters import GLOBAL_COUNTERS
from repro.core.database import ChronicleDatabase
from repro.sca.view import evaluate_summary
from repro.storage.checkpoint import write_checkpoint, load_checkpoint

SUBSCRIBERS = 40
STATES = ("NJ", "NY", "CT")


def build(retention=0):
    db = ChronicleDatabase()
    db.create_chronicle(
        "calls",
        [("caller", "INT"), ("minutes", "INT"), ("day", "INT")],
        retention=retention,
    )
    db.create_chronicle("texts", [("sender", "INT"), ("day", "INT")], retention=retention)
    db.create_relation(
        "subscribers", [("number", "INT"), ("state", "STR")], key=["number"]
    )
    for number in range(SUBSCRIBERS):
        db.relation("subscribers").insert(
            {"number": number, "state": STATES[number % 3]}
        )
    db.define_view(
        "DEFINE VIEW usage AS SELECT caller, SUM(minutes) AS total, COUNT(*) AS n "
        "FROM calls GROUP BY caller"
    )
    db.define_view(
        "DEFINE VIEW by_state AS SELECT state, SUM(minutes) AS total "
        "FROM calls JOIN subscribers ON calls.caller = subscribers.number "
        "GROUP BY state"
    )
    db.define_view(
        "DEFINE VIEW heavy AS SELECT caller, SUM(minutes) AS total "
        "FROM calls GROUP BY caller HAVING total > 500"
    )
    db.define_view(
        "DEFINE PERIODIC VIEW monthly OVER EVERY 30 BY day AS "
        "SELECT caller, SUM(minutes) AS total FROM calls GROUP BY caller"
    )
    db.define_view(
        "DEFINE VIEW texting AS SELECT sender, COUNT(*) AS n "
        "FROM texts GROUP BY sender"
    )
    return db


class ShadowModel:
    """An independent dict-based model of every view."""

    def __init__(self, db):
        self.usage = {}
        self.by_state = {}
        self.monthly = {}
        self.texting = {}
        self.db = db

    def call(self, caller, minutes, day):
        total, n = self.usage.get(caller, (0, 0))
        self.usage[caller] = (total + minutes, n + 1)
        state = self.db.relation("subscribers").lookup_key((caller,))["state"]
        self.by_state[state] = self.by_state.get(state, 0) + minutes
        month = day // 30
        key = (month, caller)
        self.monthly[key] = self.monthly.get(key, 0) + minutes

    def text(self, sender):
        self.texting[sender] = self.texting.get(sender, 0) + 1


def drive(db, shadow, rng, operations):
    for _ in range(operations):
        roll = rng.random()
        day = rng.randrange(90)
        if roll < 0.70:
            caller = rng.randrange(SUBSCRIBERS)
            minutes = rng.randrange(1, 60)
            db.append("calls", {"caller": caller, "minutes": minutes, "day": day})
            shadow.call(caller, minutes, day)
        elif roll < 0.85:
            sender = rng.randrange(SUBSCRIBERS)
            db.append("texts", {"sender": sender, "day": day})
            shadow.text(sender)
        elif roll < 0.95:
            caller = rng.randrange(SUBSCRIBERS)
            minutes = rng.randrange(1, 60)
            sender = rng.randrange(SUBSCRIBERS)
            db.append_simultaneous(
                {
                    "calls": {"caller": caller, "minutes": minutes, "day": day},
                    "texts": {"sender": sender, "day": day},
                }
            )
            shadow.call(caller, minutes, day)
            shadow.text(sender)
        else:
            # Proactive subscriber state change: by_state views use the
            # new state only for *future* calls — exactly what the shadow
            # model does by reading the current state per call.
            number = rng.randrange(SUBSCRIBERS)
            db.update_relation(
                "subscribers", (number,), state=STATES[rng.randrange(3)]
            )


def check(db, shadow):
    for caller, (total, n) in shadow.usage.items():
        assert db.view_value("usage", (caller,), "total") == total
        assert db.view_value("usage", (caller,), "n") == n
    for state, total in shadow.by_state.items():
        assert db.view_value("by_state", (state,), "total") == total
    for caller, (total, _) in shadow.usage.items():
        row = db.view("heavy").lookup((caller,))
        if total > 500:
            assert row is not None and row["total"] == total
        else:
            assert row is None
    months = db.periodic_view("monthly")
    for (month, caller), total in shadow.monthly.items():
        assert months[month].value((caller,), "total") == total
    for sender, n in shadow.texting.items():
        assert db.view_value("texting", (sender,), "n") == n
    assert len(db.chronicle("calls")) == 0
    assert len(db.chronicle("texts")) == 0


def test_soak_five_thousand_mixed_operations():
    db = build()
    shadow = ShadowModel(db)
    rng = random.Random(2026)
    drive(db, shadow, rng, 5_000)
    check(db, shadow)


def test_soak_prefilter_equivalence():
    """The views the dispatch index routes equal the batch oracle over the
    stored history, and maintaining them reads no chronicle."""
    db = build(retention=None)
    with GLOBAL_COUNTERS.measure() as cost:
        drive(db, ShadowModel(db), random.Random(7), 1_500)
    assert cost["chronicle_read"] == 0
    for view_name in ("usage", "by_state", "heavy", "texting"):
        oracle = evaluate_summary(db.view(view_name).summary)
        assert sorted(r.values for r in db.view(view_name)) == sorted(r.values for r in oracle)


def test_soak_checkpoint_mid_stream():
    db = build()
    shadow = ShadowModel(db)
    rng = random.Random(99)
    drive(db, shadow, rng, 1_000)
    buffer = io.StringIO()
    write_checkpoint(db, buffer)
    buffer.seek(0)

    # "Restart": rebuild the same shape, restore, keep driving both.
    fresh = build()
    load_checkpoint(fresh, buffer)
    fresh_shadow = ShadowModel(fresh)
    fresh_shadow.usage = dict(shadow.usage)
    fresh_shadow.by_state = dict(shadow.by_state)
    fresh_shadow.monthly = dict(shadow.monthly)
    fresh_shadow.texting = dict(shadow.texting)
    rng_fresh = random.Random(123)
    drive(fresh, fresh_shadow, rng_fresh, 1_000)
    for caller, (total, n) in fresh_shadow.usage.items():
        assert fresh.view_value("usage", (caller,), "total") == total
    for state, total in fresh_shadow.by_state.items():
        assert fresh.view_value("by_state", (state,), "total") == total
    # Periodic views are checkpointed too: month totals span both halves.
    months = fresh.periodic_view("monthly")
    for (month, caller), total in fresh_shadow.monthly.items():
        assert months[month].value((caller,), "total") == total
