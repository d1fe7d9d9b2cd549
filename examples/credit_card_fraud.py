"""Credit-card monitoring: HAVING views, periodic windows, durability.

A card processor's monitoring database over an unstored purchase stream:

* a HAVING view surfacing only cards whose cash-advance volume crossed a
  risk threshold (the view's state tracks *every* card; visibility is
  the filter — groups appear the moment they cross);
* a weekly periodic view (``DEFINE PERIODIC VIEW … OVER EVERY 7``) for
  per-card weekly spend;
* a mid-stream checkpoint + simulated restart: the views' accumulators
  are the only copy of the summarized history, and they survive.

Run:  python examples/credit_card_fraud.py
"""

import io

from repro import ChronicleDatabase
from repro.storage.checkpoint import write_checkpoint, load_checkpoint
from repro.workloads import CreditCardWorkload

RISK_THRESHOLD_CENTS = 50_000


def build() -> ChronicleDatabase:
    db = ChronicleDatabase()
    db.create_chronicle(
        "purchases",
        [("card", "INT"), ("merchant", "INT"), ("category", "STR"),
         ("cents", "INT"), ("day", "INT")],
        retention=0,
    )
    db.define_view(
        "DEFINE VIEW spend AS SELECT card, SUM(cents) AS cents, COUNT(*) AS n "
        "FROM purchases GROUP BY card"
    )
    db.define_view(
        "DEFINE VIEW risky AS SELECT card, SUM(cents) AS advance_cents "
        "FROM purchases WHERE category = 'cash_advance' "
        f"GROUP BY card HAVING advance_cents > {RISK_THRESHOLD_CENTS}"
    )
    db.define_view(
        "DEFINE PERIODIC VIEW weekly OVER EVERY 7 BY day AS "
        "SELECT card, SUM(cents) AS cents FROM purchases GROUP BY card"
    )
    return db


def main() -> None:
    db = build()
    workload = CreditCardWorkload(seed=19, cards=500, purchases_per_day=400)
    records = list(workload.records(28_000))  # 10 weeks

    # First half of the stream, then a checkpoint ("nightly snapshot").
    for record in records[: len(records) // 2]:
        db.append("purchases", record)
    snapshot = io.StringIO()
    write_checkpoint(db, snapshot)

    # Simulated crash + restart: rebuild the schema, restore the state,
    # and replay only the *new* traffic (the old stream is gone — and was
    # never stored anywhere).
    db = build()
    snapshot.seek(0)
    load_checkpoint(db, snapshot)
    for record in records[len(records) // 2:]:
        db.append("purchases", record)

    risky = sorted(db.view("risky"), key=lambda r: -r["advance_cents"])
    tracked = len(db.view("risky").state_export())  # state for every card seen
    print(f"purchases processed : {len(records):,} "
          f"(stored: {len(db.chronicle('purchases'))})")
    print(f"risk view           : {len(risky)} cards over "
          f"${RISK_THRESHOLD_CENTS / 100:,.0f} in cash advances "
          f"(state tracked for {tracked} advance-using cards)")
    for row in risky[:5]:
        print(f"  card {row['card']}: ${row['advance_cents'] / 100:,.2f}")
    weeks = db.periodic_view("weekly")
    hot_card = risky[0]["card"] if risky else records[-1]["card"]
    series = [
        (index, view.value((hot_card,), "cents") or 0)
        for index, view in weeks.active_views()
    ]
    pretty = ", ".join(f"w{index}=${cents / 100:,.0f}" for index, cents in series[-4:])
    print(f"weekly spend, card {hot_card}: {pretty}")
    print("checkpoint/restart  : survived mid-stream (totals span both halves)")


if __name__ == "__main__":
    main()
