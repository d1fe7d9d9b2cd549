"""The engine's one hash structure.

:class:`HashMap` is an insertion-ordered ``dict`` whose ``get`` counts
one ``index_lookup`` and one ``index_probe`` through the cost model: it
is a view's default state store (the locate of Theorem 4.4) and a
relation's primary-key index.  :class:`HashIndex` is a multi-valued
index over one :class:`HashMap` (key → list of values), a relation's
unordered secondary index; it shares its API with
:class:`~repro.storage.btree.BPlusTree`, so a relation files rows in
either without asking which.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterator, List, Optional, Tuple

from ..complexity.counters import GLOBAL_COUNTERS
from ..errors import KeyViolationError

_count = GLOBAL_COUNTERS.count


class HashMap(dict):
    """An insertion-ordered map whose ``get`` is one counted hash locate
    (one ``index_lookup``, one ``index_probe``); ``insert`` is a plain
    set."""

    __slots__ = ()

    def get(self, key: Hashable) -> Optional[Any]:
        _count("index_lookup")
        _count("index_probe")
        return dict.get(self, key)

    insert = dict.__setitem__


class HashIndex:
    """A hash index mapping keys to one or many values.

    Every locate is one :meth:`HashMap.get`.  With *unique* true an
    insert of a key already present raises
    :class:`~repro.errors.KeyViolationError`.
    """

    __slots__ = ("unique", "_map", "_size")

    def __init__(self, unique: bool = False) -> None:
        self.unique = unique
        self._map = HashMap()
        self._size = 0

    # -- mutation ----------------------------------------------------------------

    def insert(self, key: Hashable, value: Any) -> None:
        """Insert a ``key → value`` entry."""
        values = self._map.get(key)
        if values is None:
            self._map.insert(key, [value])
        elif self.unique:
            raise KeyViolationError(f"duplicate key {key!r} in unique index")
        else:
            values.append(value)
        self._size += 1

    def remove(self, key: Hashable, value: Any = None) -> bool:
        """Remove one entry for *key* (the ``(key, value)`` pair when
        *value* is given); returns whether an entry was removed."""
        values = self._map.get(key)
        if values is None:
            return False
        if value is None:
            values.pop()
        elif value in values:
            values.remove(value)
        else:
            return False
        if not values:
            del self._map[key]
        self._size -= 1
        return True

    def clear(self) -> None:
        """Drop every entry."""
        self._map.clear()
        self._size = 0

    # -- lookup -------------------------------------------------------------------

    def get(self, key: Hashable) -> Optional[Any]:
        """The first value stored at *key*, else ``None``."""
        values = self._map.get(key)
        return None if values is None else values[0]

    def get_all(self, key: Hashable) -> List[Any]:
        """Every value stored at *key*, in insertion order."""
        values = self._map.get(key)
        return [] if values is None else list(values)

    def contains(self, key: Hashable) -> bool:
        """Whether any entry exists for *key*."""
        return self._map.get(key) is not None

    __contains__ = contains

    # -- iteration ------------------------------------------------------------------

    def items(self) -> Iterator[Tuple[Hashable, Any]]:
        """Every ``(key, value)`` entry, keys in first-inserted order."""
        for key, values in self._map.items():
            for value in values:
                yield key, value

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        kind = "unique" if self.unique else "multi"
        return f"HashIndex({kind}, size={self._size})"
