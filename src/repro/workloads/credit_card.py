"""Credit-card transaction workload.

One of the domains the paper lists for the chronicle model (credit cards,
billing, retailing).  Includes a merchant-category attribute so selective
views (fraud screens, category totals) exercise the Section 5.2
affected-view prefilter.
"""

from __future__ import annotations

from typing import Any, Dict

from .base import SchemaSpec, Workload, ZipfChooser

_CATEGORIES = (
    "grocery",
    "fuel",
    "dining",
    "travel",
    "online",
    "utilities",
    "cash_advance",
)


class CreditCardWorkload(Workload):
    """A stream of card purchases.

    Record attributes
    -----------------
    card:
        Card number (hot-skewed over *cards*).
    merchant:
        Merchant id.
    category:
        Merchant category (cash advances rare — good prefilter target).
    cents:
        Purchase amount in cents.
    day:
        Day index (chronon).
    """

    NAME = "purchases"
    CHRONICLE_SCHEMA: SchemaSpec = [
        ("card", "INT"),
        ("merchant", "INT"),
        ("category", "STR"),
        ("cents", "INT"),
        ("day", "INT"),
    ]

    def __init__(
        self,
        seed: int = 41,
        cards: int = 800,
        merchants: int = 200,
        purchases_per_day: int = 250,
    ) -> None:
        super().__init__(seed)
        self.cards = cards
        self.merchants = merchants
        self.purchases_per_day = max(purchases_per_day, 1)
        self._chooser = ZipfChooser(cards, rng=self.rng)

    def record(self, index: int) -> Dict[str, Any]:
        roll = self.rng.random()
        if roll < 0.02:
            category = "cash_advance"
            cents = self.rng.randrange(5_000, 50_001)
        else:
            category = _CATEGORIES[self.rng.randrange(len(_CATEGORIES) - 1)]
            cents = self.rng.randrange(200, 30_001)
        return {
            "card": 4_000_000 + self._chooser.choose(),
            "merchant": self.rng.randrange(self.merchants),
            "category": category,
            "cents": cents,
            "day": index // self.purchases_per_day,
        }

    CARDHOLDER_SCHEMA: SchemaSpec = [
        ("card", "INT"),
        ("limit_cents", "INT"),
        ("tier", "STR"),
    ]
