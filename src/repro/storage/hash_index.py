"""Chained hash index.

Hash indexes provide the expected-O(1) lookups used by the trigger-style
baseline and by view location when the view key is an equality key.  The
implementation is a straightforward chained hash table built from scratch
(per the reproduction's "no stubs" rule) rather than a thin dict wrapper:
it resizes by doubling, tracks probe counts through the cost model, and
supports unique and multi-valued modes.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterator, List, Optional, Tuple

from ..complexity.counters import GLOBAL_COUNTERS, CostCounters
from ..errors import KeyViolationError


class HashIndex:
    """A chained hash table mapping keys to one or many values.

    Parameters
    ----------
    unique:
        When true an insert of a duplicate key raises
        :class:`~repro.errors.KeyViolationError`.
    initial_buckets:
        Starting bucket count (power of two).
    counters:
        Cost-model sink; defaults to the process-wide counters.
    """

    _MAX_LOAD = 0.75

    __slots__ = ("unique", "_buckets", "_size", "_mask", "_counters")

    def __init__(
        self,
        unique: bool = False,
        initial_buckets: int = 8,
        counters: Optional[CostCounters] = None,
    ) -> None:
        if initial_buckets < 1 or initial_buckets & (initial_buckets - 1):
            raise ValueError("initial_buckets must be a positive power of two")
        self.unique = unique
        self._buckets: List[List[Tuple[Hashable, Any]]] = [[] for _ in range(initial_buckets)]
        self._mask = initial_buckets - 1
        self._size = 0
        self._counters = counters if counters is not None else GLOBAL_COUNTERS

    # -- internals ---------------------------------------------------------------

    def _bucket(self, key: Hashable) -> List[Tuple[Hashable, Any]]:
        return self._buckets[hash(key) & self._mask]

    def _grow(self) -> None:
        old = self._buckets
        count = len(old) * 2
        self._buckets = [[] for _ in range(count)]
        self._mask = count - 1
        for bucket in old:
            for key, value in bucket:
                self._buckets[hash(key) & self._mask].append((key, value))

    # -- mutation ----------------------------------------------------------------

    def insert(self, key: Hashable, value: Any) -> None:
        """Insert a ``key → value`` entry."""
        bucket = self._bucket(key)
        if self.unique:
            for existing_key, _ in bucket:
                self._counters.count("index_probe")
                if existing_key == key:
                    raise KeyViolationError(f"duplicate key {key!r} in unique index")
        bucket.append((key, value))
        self._size += 1
        if self._size > self._MAX_LOAD * len(self._buckets):
            self._grow()

    def remove(self, key: Hashable, value: Any = None) -> bool:
        """Remove one entry for *key*.

        With *value* given, removes that specific ``(key, value)`` pair
        (identity of equal values is not distinguished); otherwise removes
        an arbitrary entry for the key.  Returns whether an entry was
        removed.
        """
        bucket = self._bucket(key)
        for position, (existing_key, existing_value) in enumerate(bucket):
            self._counters.count("index_probe")
            if existing_key == key and (value is None or existing_value == value):
                del bucket[position]
                self._size -= 1
                return True
        return False

    def clear(self) -> None:
        """Drop every entry."""
        self._buckets = [[] for _ in range(8)]
        self._mask = 7
        self._size = 0

    # -- lookup -------------------------------------------------------------------

    def get(self, key: Hashable) -> Optional[Any]:
        """The single value stored at *key* (unique mode), else ``None``."""
        self._counters.count("index_lookup")
        for existing_key, value in self._bucket(key):
            self._counters.count("index_probe")
            if existing_key == key:
                return value
        return None

    def get_all(self, key: Hashable) -> List[Any]:
        """Every value stored at *key* (multi mode)."""
        self._counters.count("index_lookup")
        matches = []
        for existing_key, value in self._bucket(key):
            self._counters.count("index_probe")
            if existing_key == key:
                matches.append(value)
        return matches

    def contains(self, key: Hashable) -> bool:
        """Whether any entry exists for *key*."""
        self._counters.count("index_lookup")
        for existing_key, _ in self._bucket(key):
            self._counters.count("index_probe")
            if existing_key == key:
                return True
        return False

    __contains__ = contains

    # -- iteration ------------------------------------------------------------------

    def items(self) -> Iterator[Tuple[Hashable, Any]]:
        """Iterate all ``(key, value)`` entries in arbitrary order."""
        for bucket in self._buckets:
            yield from bucket

    def keys(self) -> Iterator[Hashable]:
        for key, _ in self.items():
            yield key

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        kind = "unique" if self.unique else "multi"
        return f"HashIndex({kind}, size={self._size}, buckets={len(self._buckets)})"
