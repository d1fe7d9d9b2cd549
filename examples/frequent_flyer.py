"""The paper's running example (Examples 2.1 / 2.2): frequent-flyer miles.

One chronicle of mileage transactions, a customers relation, and the
three persistent views of Example 2.1 — mileage balance, miles actually
flown, and premier status — plus the Example 2.2 New-Jersey bonus view,
whose temporal join makes the bonus depend on the customer's address *at
flight time* (address changes are proactive updates).

Run:  python examples/frequent_flyer.py
"""

from repro import ChronicleDatabase, GroupBySummary, scan, spec
from repro.aggregates import COUNT
from repro.relational import attr_eq
from repro.workloads import FrequentFlyerWorkload, premier_status

NJ_BONUS_MILES = 500


def main() -> None:
    db = ChronicleDatabase()
    db.create_chronicle(
        "mileage",
        [("acct", "INT"), ("miles", "INT"), ("source", "STR"), ("day", "INT")],
        retention=0,
    )
    db.create_relation(
        "customers", [("acct", "INT"), ("name", "STR"), ("state", "STR")], key=["acct"]
    )

    workload = FrequentFlyerWorkload(seed=7, customers=300)
    customers = db.relation("customers")
    customers.insert_many(workload.customer_rows())

    # -- the three Example 2.1 views, in the SQL-like language ---------------
    db.define_view(
        "DEFINE VIEW balance AS SELECT acct, SUM(miles) AS miles "
        "FROM mileage GROUP BY acct"
    )
    db.define_view(
        "DEFINE VIEW flown AS SELECT acct, SUM(miles) AS miles "
        "FROM mileage WHERE source = 'flight' GROUP BY acct"
    )

    # -- the Example 2.2 NJ bonus view, built programmatically ----------------
    bonus_expr = (
        scan(db.chronicle("mileage"))
        .select(attr_eq("source", "flight"))
        .keyjoin(customers, [("acct", "acct")])
        .select(attr_eq("state", "NJ"))
    )
    db.define_view(
        GroupBySummary(bonus_expr, ["acct"], [spec(COUNT, None, "nj_flights")]),
        name="nj_bonus",
    )

    # -- stream postings, with occasional proactive address changes ----------
    for index, record in enumerate(workload.records(20_000)):
        if index and index % 2_500 == 0:
            acct, state = workload.address_change(record["day"])
            db.update_relation("customers", (acct,), state=state)
        db.append("mileage", record)

    # -- summary queries -------------------------------------------------------
    top = max(db.view("flown"), key=lambda row: row["miles"])
    acct = top["acct"]
    flown = top["miles"]
    balance = db.view_value("balance", (acct,), "miles") or 0
    print(f"top flyer account  : {acct}")
    print(f"miles flown        : {flown:,} → status {premier_status(flown)!r}")
    print(f"mileage balance    : {balance:,}")
    nj_top = max(db.view("nj_bonus"), key=lambda row: row["nj_flights"])
    print(f"top NJ-bonus earner: account {nj_top['acct']} with "
          f"{nj_top['nj_flights']} qualifying flights "
          f"→ {nj_top['nj_flights'] * NJ_BONUS_MILES:,} bonus miles")
    print(f"chronicle stored   : {len(db.chronicle('mileage'))} rows "
          f"(of {db.chronicle('mileage').appended_count:,} appended)")


if __name__ == "__main__":
    main()
