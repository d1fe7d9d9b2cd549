"""Stock-trading workload.

Backs the Section 5.1 moving-window example: "a periodic view for every
day that computes the total number of shares of a stock sold during the
30 days preceding that day."  Prices are integer cents; share counts are
lot-sized integers.
"""

from __future__ import annotations

from typing import Any, Dict

from .base import SchemaSpec, Workload, ZipfChooser

_SIDES = ("buy", "sell")


class StockWorkload(Workload):
    """A stream of trade records.

    Record attributes
    -----------------
    symbol:
        Stock symbol index (hot-skewed: a few symbols dominate volume).
    side:
        buy | sell.
    shares:
        Lot-sized share count (multiples of 100).
    price_cents:
        Execution price in cents, randomly walked per symbol.
    day:
        Trading-day index (chronon).
    """

    NAME = "trades"
    CHRONICLE_SCHEMA: SchemaSpec = [
        ("symbol", "INT"),
        ("side", "STR"),
        ("shares", "INT"),
        ("price_cents", "INT"),
        ("day", "INT"),
    ]

    def __init__(
        self,
        seed: int = 31,
        symbols: int = 50,
        trades_per_day: int = 300,
    ) -> None:
        super().__init__(seed)
        self.symbols = symbols
        self.trades_per_day = max(trades_per_day, 1)
        self._chooser = ZipfChooser(symbols, rng=self.rng)
        self._prices: Dict[int, int] = {
            symbol: self.rng.randrange(1_000, 50_001) for symbol in range(symbols)
        }

    def record(self, index: int) -> Dict[str, Any]:
        symbol = self._chooser.choose()
        # Random-walk the per-symbol price by up to ±2%.
        price = self._prices[symbol]
        drift = self.rng.randrange(-price // 50 - 1, price // 50 + 2)
        price = max(price + drift, 100)
        self._prices[symbol] = price
        return {
            "symbol": symbol,
            "side": _SIDES[self.rng.randrange(2)],
            "shares": 100 * self.rng.randrange(1, 51),
            "price_cents": price,
            "day": index // self.trades_per_day,
        }

    SYMBOL_SCHEMA: SchemaSpec = [
        ("symbol", "INT"),
        ("ticker", "STR"),
        ("sector", "STR"),
    ]
