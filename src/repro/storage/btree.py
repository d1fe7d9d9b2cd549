"""B+-tree with range scans.

The paper's IM-log(R) class charges O(log |R|) per maintained tuple for
locating matching relation/view tuples; a B+-tree is the canonical
structure with that bound, and its probe counts make the logarithm
directly observable in the benchmarks.  This implementation is built from
scratch: order-configurable, leaf-linked for range scans, multi-valued
(several values per key) with an optional unique mode, and instrumented
through the cost model.

Keys may be any mutually-comparable Python values (ints, strings, tuples).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Iterator, List, Optional, Tuple

from ..complexity.counters import GLOBAL_COUNTERS, CostCounters
from ..errors import KeyViolationError


class _Leaf:
    __slots__ = ("keys", "values", "next")

    def __init__(self) -> None:
        self.keys: List[Any] = []
        self.values: List[List[Any]] = []
        self.next: Optional["_Leaf"] = None


class _Internal:
    __slots__ = ("keys", "children")

    def __init__(self) -> None:
        self.keys: List[Any] = []
        self.children: List[Any] = []


class BPlusTree:
    """An in-memory B+-tree index.

    Parameters
    ----------
    order:
        Maximum number of children of an internal node (>= 3).  Leaves
        hold at most ``order - 1`` keys.
    unique:
        When true, inserting an existing key raises
        :class:`~repro.errors.KeyViolationError`.
    counters:
        Cost-model sink; defaults to the process-wide counters.
    """

    __slots__ = ("order", "unique", "_root", "_size", "_counters")

    def __init__(
        self,
        order: int = 32,
        unique: bool = False,
        counters: Optional[CostCounters] = None,
    ) -> None:
        if order < 3:
            raise ValueError("B+-tree order must be at least 3")
        self.order = order
        self.unique = unique
        self._root: Any = _Leaf()
        self._size = 0  # number of (key, value) entries
        self._counters = counters if counters is not None else GLOBAL_COUNTERS

    # -- search helpers ------------------------------------------------------------

    def _find_leaf(self, key: Any) -> _Leaf:
        """Descend to the leaf that owns *key*.

        Charges one probe per level, reported as one count per descent.
        """
        node = self._root
        probes = 1
        while type(node) is _Internal:
            probes += 1
            node = node.children[bisect_right(node.keys, key)]
        self._counters.count("index_probe", probes)
        return node

    def _leftmost_leaf(self) -> _Leaf:
        node = self._root
        while isinstance(node, _Internal):
            node = node.children[0]
        return node

    # -- lookup ----------------------------------------------------------------------

    def get(self, key: Any) -> Optional[Any]:
        """First value stored at *key*, or ``None``."""
        self._counters.count("index_lookup")
        leaf = self._find_leaf(key)
        position = bisect_left(leaf.keys, key)
        if position < len(leaf.keys) and leaf.keys[position] == key:
            return leaf.values[position][0]
        return None

    def get_all(self, key: Any) -> List[Any]:
        """Every value stored at *key* (empty list when absent)."""
        self._counters.count("index_lookup")
        leaf = self._find_leaf(key)
        position = bisect_left(leaf.keys, key)
        if position < len(leaf.keys) and leaf.keys[position] == key:
            return list(leaf.values[position])
        return []

    def contains(self, key: Any) -> bool:
        """Whether any entry exists for *key*."""
        self._counters.count("index_lookup")
        leaf = self._find_leaf(key)
        position = bisect_left(leaf.keys, key)
        return position < len(leaf.keys) and leaf.keys[position] == key

    __contains__ = contains

    def range(
        self,
        low: Any = None,
        high: Any = None,
        inclusive: Tuple[bool, bool] = (True, True),
    ) -> Iterator[Tuple[Any, Any]]:
        """Iterate ``(key, value)`` pairs with ``low <= key <= high``.

        Either bound may be ``None`` (unbounded).  *inclusive* controls
        whether each bound is closed.
        """
        self._counters.count("index_lookup")
        if low is None:
            leaf: Optional[_Leaf] = self._leftmost_leaf()
            position = 0
        else:
            leaf = self._find_leaf(low)
            position = (
                bisect_left(leaf.keys, low) if inclusive[0] else bisect_right(leaf.keys, low)
            )
        while leaf is not None:
            while position < len(leaf.keys):
                key = leaf.keys[position]
                if high is not None:
                    if inclusive[1]:
                        if key > high:
                            return
                    elif key >= high:
                        return
                for value in leaf.values[position]:
                    yield key, value
                position += 1
            leaf = leaf.next
            position = 0

    def items(self) -> Iterator[Tuple[Any, Any]]:
        """All entries in key order."""
        return self.range()

    def keys(self) -> Iterator[Any]:
        """All distinct keys in order."""
        leaf: Optional[_Leaf] = self._leftmost_leaf()
        while leaf is not None:
            yield from leaf.keys
            leaf = leaf.next

    def min_key(self) -> Optional[Any]:
        """Smallest key, or ``None`` when empty."""
        leaf = self._leftmost_leaf()
        return leaf.keys[0] if leaf.keys else None

    def max_key(self) -> Optional[Any]:
        """Largest key, or ``None`` when empty."""
        node = self._root
        while isinstance(node, _Internal):
            node = node.children[-1]
        return node.keys[-1] if node.keys else None

    # -- insertion -------------------------------------------------------------------

    def insert(self, key: Any, value: Any) -> None:
        """Insert a ``key → value`` entry."""
        self._counters.count("index_lookup")
        # One descent, remembering the path so splits can propagate up.
        path: List[Tuple[_Internal, int]] = []
        node = self._root
        while type(node) is _Internal:
            child_pos = bisect_right(node.keys, key)
            path.append((node, child_pos))
            node = node.children[child_pos]
        self._counters.count("index_probe", len(path) + 1)
        position = bisect_left(node.keys, key)
        if position < len(node.keys) and node.keys[position] == key:
            if self.unique:
                raise KeyViolationError(f"duplicate key {key!r} in unique index")
            node.values[position].append(value)
            self._size += 1
            return
        node.keys.insert(position, key)
        node.values.insert(position, [value])
        self._size += 1
        if len(node.keys) < self.order:
            return
        separator, right = self._split_leaf(node)
        while path:
            parent, child_pos = path.pop()
            parent.keys.insert(child_pos, separator)
            parent.children.insert(child_pos + 1, right)
            if len(parent.children) <= self.order:
                return
            separator, right = self._split_internal(parent)
        new_root = _Internal()
        new_root.keys = [separator]
        new_root.children = [self._root, right]
        self._root = new_root

    def _split_leaf(self, leaf: _Leaf) -> Tuple[Any, _Leaf]:
        middle = len(leaf.keys) // 2
        right = _Leaf()
        right.keys = leaf.keys[middle:]
        right.values = leaf.values[middle:]
        leaf.keys = leaf.keys[:middle]
        leaf.values = leaf.values[:middle]
        right.next = leaf.next
        leaf.next = right
        return right.keys[0], right

    def _split_internal(self, node: _Internal) -> Tuple[Any, _Internal]:
        middle = len(node.keys) // 2
        separator = node.keys[middle]
        right = _Internal()
        right.keys = node.keys[middle + 1:]
        right.children = node.children[middle + 1:]
        node.keys = node.keys[:middle]
        node.children = node.children[:middle + 1]
        return separator, right

    # -- deletion --------------------------------------------------------------------

    def remove(self, key: Any, value: Any = None) -> bool:
        """Remove one entry for *key* (a specific *value* when given).

        Returns whether an entry was removed.  Underflowing nodes are
        rebalanced by borrowing from or merging with siblings.
        """
        self._counters.count("index_lookup")
        removed = self._remove(self._root, key, value)
        if removed:
            self._size -= 1
            if isinstance(self._root, _Internal) and len(self._root.children) == 1:
                self._root = self._root.children[0]
        return removed

    def remove_all(self, key: Any) -> int:
        """Remove every entry for *key*; returns how many were removed."""
        removed = 0
        while self.remove(key):
            removed += 1
        return removed

    def _min_keys(self, node: Any) -> int:
        if node is self._root:
            return 1
        if isinstance(node, _Leaf):
            return (self.order - 1) // 2
        return (self.order + 1) // 2 - 1  # min children - 1

    def _remove(self, node: Any, key: Any, value: Any) -> bool:
        if isinstance(node, _Leaf):
            self._counters.count("index_probe")
            position = bisect_left(node.keys, key)
            if position >= len(node.keys) or node.keys[position] != key:
                return False
            bucket = node.values[position]
            if value is None:
                bucket.pop()
            else:
                try:
                    bucket.remove(value)
                except ValueError:
                    return False
            if not bucket:
                del node.keys[position]
                del node.values[position]
            return True
        self._counters.count("index_probe")
        child_pos = bisect_right(node.keys, key)
        child = node.children[child_pos]
        removed = self._remove(child, key, value)
        if removed:
            self._rebalance(node, child_pos)
        return removed

    def _rebalance(self, parent: _Internal, child_pos: int) -> None:
        child = parent.children[child_pos]
        child_len = len(child.keys) if isinstance(child, _Leaf) else len(child.children) - 1
        if child_len >= self._min_keys(child):
            return
        left = parent.children[child_pos - 1] if child_pos > 0 else None
        right = parent.children[child_pos + 1] if child_pos + 1 < len(parent.children) else None
        if isinstance(child, _Leaf):
            if left is not None and len(left.keys) > self._min_keys(left):
                child.keys.insert(0, left.keys.pop())
                child.values.insert(0, left.values.pop())
                parent.keys[child_pos - 1] = child.keys[0]
            elif right is not None and len(right.keys) > self._min_keys(right):
                child.keys.append(right.keys.pop(0))
                child.values.append(right.values.pop(0))
                parent.keys[child_pos] = right.keys[0] if right.keys else parent.keys[child_pos]
            elif left is not None:
                left.keys.extend(child.keys)
                left.values.extend(child.values)
                left.next = child.next
                del parent.children[child_pos]
                del parent.keys[child_pos - 1]
            elif right is not None:
                child.keys.extend(right.keys)
                child.values.extend(right.values)
                child.next = right.next
                del parent.children[child_pos + 1]
                del parent.keys[child_pos]
            return
        # internal child
        if left is not None and len(left.children) - 1 > self._min_keys(left):
            child.keys.insert(0, parent.keys[child_pos - 1])
            parent.keys[child_pos - 1] = left.keys.pop()
            child.children.insert(0, left.children.pop())
        elif right is not None and len(right.children) - 1 > self._min_keys(right):
            child.keys.append(parent.keys[child_pos])
            parent.keys[child_pos] = right.keys.pop(0)
            child.children.append(right.children.pop(0))
        elif left is not None:
            left.keys.append(parent.keys[child_pos - 1])
            left.keys.extend(child.keys)
            left.children.extend(child.children)
            del parent.children[child_pos]
            del parent.keys[child_pos - 1]
        elif right is not None:
            child.keys.append(parent.keys[child_pos])
            child.keys.extend(right.keys)
            child.children.extend(right.children)
            del parent.children[child_pos + 1]
            del parent.keys[child_pos]

    # -- misc ------------------------------------------------------------------------

    def clear(self) -> None:
        """Drop every entry."""
        self._root = _Leaf()
        self._size = 0

    @property
    def depth(self) -> int:
        """Height of the tree (1 = a single leaf)."""
        node, levels = self._root, 1
        while isinstance(node, _Internal):
            node = node.children[0]
            levels += 1
        return levels

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        kind = "unique" if self.unique else "multi"
        return f"BPlusTree(order={self.order}, {kind}, size={self._size}, depth={self.depth})"
