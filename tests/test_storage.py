"""Tests for the storage layer: hash index and B+-tree.

Includes hypothesis property tests comparing both structures against
dict / sorted-list models.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KeyViolationError
from repro.storage.btree import BPlusTree
from repro.storage.hash_index import HashIndex


class TestHashIndexBasics:
    def test_insert_get(self):
        index = HashIndex()
        index.insert("k", 1)
        assert index.get("k") == 1

    def test_get_missing(self):
        assert HashIndex().get("nope") is None

    def test_multi_values(self):
        index = HashIndex()
        index.insert("k", 1)
        index.insert("k", 2)
        assert sorted(index.get_all("k")) == [1, 2]

    def test_unique_rejects_duplicate(self):
        index = HashIndex(unique=True)
        index.insert("k", 1)
        with pytest.raises(KeyViolationError):
            index.insert("k", 2)

    def test_remove_specific_value(self):
        index = HashIndex()
        index.insert("k", 1)
        index.insert("k", 2)
        assert index.remove("k", 1)
        assert index.get_all("k") == [2]

    def test_remove_missing(self):
        assert not HashIndex().remove("k")

    def test_contains(self):
        index = HashIndex()
        index.insert("k", 1)
        assert "k" in index
        assert "x" not in index

    def test_clear(self):
        index = HashIndex()
        index.insert("k", 1)
        index.clear()
        assert len(index) == 0
        assert index.get("k") is None

    def test_growth_preserves_entries(self):
        index = HashIndex(initial_buckets=8)
        for i in range(1000):
            index.insert(i, i * 2)
        assert len(index) == 1000
        assert all(index.get(i) == i * 2 for i in range(0, 1000, 97))

    def test_bad_initial_buckets(self):
        with pytest.raises(ValueError):
            HashIndex(initial_buckets=6)

    def test_items_iteration(self):
        index = HashIndex()
        for i in range(20):
            index.insert(i, -i)
        assert sorted(index.items()) == [(i, -i) for i in range(20)]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from("abcdefgh"), st.integers(0, 5), st.booleans()),
        max_size=120,
    )
)
def test_hash_index_matches_dict_model(operations):
    """Property: HashIndex multi-map behaves like dict-of-lists."""
    index = HashIndex()
    model = {}
    for key, value, is_insert in operations:
        if is_insert:
            index.insert(key, value)
            model.setdefault(key, []).append(value)
        else:
            removed = index.remove(key, value)
            bucket = model.get(key, [])
            assert removed == (value in bucket)
            if value in bucket:
                bucket.remove(value)
    for key in "abcdefgh":
        assert sorted(index.get_all(key)) == sorted(model.get(key, []))
    assert len(index) == sum(len(v) for v in model.values())


class TestBPlusTreeBasics:
    def test_insert_get(self):
        tree = BPlusTree(order=4)
        tree.insert(5, "five")
        assert tree.get(5) == "five"

    def test_get_missing(self):
        assert BPlusTree().get(99) is None

    def test_multi_values(self):
        tree = BPlusTree(order=4)
        tree.insert(1, "a")
        tree.insert(1, "b")
        assert sorted(tree.get_all(1)) == ["a", "b"]

    def test_unique_rejects_duplicate(self):
        tree = BPlusTree(unique=True)
        tree.insert(1, "a")
        with pytest.raises(KeyViolationError):
            tree.insert(1, "b")

    def test_order_too_small(self):
        with pytest.raises(ValueError):
            BPlusTree(order=2)

    def test_sorted_iteration_after_splits(self):
        tree = BPlusTree(order=4)
        import random

        values = list(range(500))
        random.Random(3).shuffle(values)
        for v in values:
            tree.insert(v, v)
        assert [k for k, _ in tree.items()] == list(range(500))
        assert tree.depth > 1

    def test_range_scan(self):
        tree = BPlusTree(order=4)
        for v in range(100):
            tree.insert(v, v)
        assert [k for k, _ in tree.range(10, 15)] == [10, 11, 12, 13, 14, 15]

    def test_range_scan_exclusive(self):
        tree = BPlusTree(order=4)
        for v in range(20):
            tree.insert(v, v)
        keys = [k for k, _ in tree.range(5, 10, inclusive=(False, False))]
        assert keys == [6, 7, 8, 9]

    def test_range_unbounded(self):
        tree = BPlusTree(order=4)
        for v in range(10):
            tree.insert(v, v)
        assert len(list(tree.range())) == 10
        assert [k for k, _ in tree.range(None, 3)] == [0, 1, 2, 3]
        assert [k for k, _ in tree.range(7, None)] == [7, 8, 9]

    def test_min_max_keys(self):
        tree = BPlusTree(order=4)
        assert tree.min_key() is None and tree.max_key() is None
        for v in (5, 1, 9, 3):
            tree.insert(v, v)
        assert tree.min_key() == 1
        assert tree.max_key() == 9

    def test_remove_and_rebalance(self):
        tree = BPlusTree(order=4)
        for v in range(200):
            tree.insert(v, v)
        for v in range(0, 200, 2):
            assert tree.remove(v)
        assert [k for k, _ in tree.items()] == list(range(1, 200, 2))
        assert len(tree) == 100

    def test_remove_specific_value(self):
        tree = BPlusTree(order=4)
        tree.insert(1, "a")
        tree.insert(1, "b")
        assert tree.remove(1, "a")
        assert tree.get_all(1) == ["b"]

    def test_remove_missing(self):
        tree = BPlusTree()
        tree.insert(1, "a")
        assert not tree.remove(2)
        assert not tree.remove(1, "zzz")

    def test_remove_all(self):
        tree = BPlusTree(order=4)
        for _ in range(5):
            tree.insert(3, "x")
        assert tree.remove_all(3) == 5
        assert tree.get_all(3) == []

    def test_clear(self):
        tree = BPlusTree()
        tree.insert(1, "a")
        tree.clear()
        assert len(tree) == 0

    def test_string_keys(self):
        tree = BPlusTree(order=4)
        for word in ("pear", "apple", "fig", "date"):
            tree.insert(word, word)
        assert list(tree.keys()) == ["apple", "date", "fig", "pear"]

    def test_tuple_keys(self):
        tree = BPlusTree(order=4)
        tree.insert((1, "b"), 1)
        tree.insert((1, "a"), 2)
        tree.insert((0, "z"), 3)
        assert list(tree.keys()) == [(0, "z"), (1, "a"), (1, "b")]

    def test_depth_grows_logarithmically(self):
        tree = BPlusTree(order=8)
        for v in range(4096):
            tree.insert(v, v)
        assert tree.depth <= 6


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 50), st.booleans()), max_size=200),
    st.sampled_from([3, 4, 5, 8, 16]),
)
def test_btree_matches_dict_model(operations, order):
    """Property: BPlusTree matches a dict-of-counts model under
    interleaved inserts/removals, and iterates in sorted order."""
    tree = BPlusTree(order=order)
    model = {}
    for key, is_insert in operations:
        if is_insert:
            tree.insert(key, key)
            model[key] = model.get(key, 0) + 1
        else:
            removed = tree.remove(key)
            assert removed == (model.get(key, 0) > 0)
            if key in model:
                model[key] -= 1
                if model[key] == 0:
                    del model[key]
    expected = sorted(k for k, n in model.items() for _ in range(n))
    assert [k for k, _ in tree.items()] == expected
    assert len(tree) == len(expected)


@settings(max_examples=40, deadline=None)
@given(
    st.sets(st.integers(-1000, 1000), max_size=150),
    st.integers(-1000, 1000),
    st.integers(-1000, 1000),
)
def test_btree_range_matches_model(keys, low, high):
    """Property: range scans return exactly the model's sorted slice."""
    low, high = min(low, high), max(low, high)
    tree = BPlusTree(order=5)
    for key in keys:
        tree.insert(key, key)
    expected = sorted(k for k in keys if low <= k <= high)
    assert [k for k, _ in tree.range(low, high)] == expected
