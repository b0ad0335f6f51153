"""Unit and property tests: the page-based B-tree."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.storage.btree import BTree
from repro.storage.buffer import BufferPool
from repro.storage.meter import CostMeter


def make_tree(fanout=4, pool_pages=10_000):
    meter = CostMeter()
    pool = BufferPool(pool_pages, meter)
    return BTree("idx", pool, fanout=fanout), meter


class TestPagesFor:
    """The closed form the catalog sizes unbuilt indexes with."""

    @pytest.mark.parametrize("fanout", [4, 7, 512])
    def test_equals_the_built_tree(self, fanout):
        sizes = {0, 1, fanout - 1, fanout, fanout + 1, fanout ** 2, 100_000}
        for entries in sorted(sizes):
            tree, _ = make_tree(fanout=fanout)
            tree.bulk_load([(i, (i, 0)) for i in range(entries)])
            assert BTree.pages_for(entries, fanout) == tree.pages, entries


class TestBulkLoad:
    def test_search_unique_keys(self):
        tree, _ = make_tree()
        tree.bulk_load([(i, (i, 0)) for i in range(100)])
        assert tree.search(42) == [(42, 0)]
        assert tree.search(-1) == []
        assert tree.search(100) == []

    def test_duplicate_keys_all_returned(self):
        tree, _ = make_tree()
        tree.bulk_load([(i % 10, (i, 0)) for i in range(100)])
        assert len(tree.search(3)) == 10

    def test_unsorted_input_accepted(self):
        tree, _ = make_tree()
        pairs = [(i, (i, 0)) for i in range(50)]
        random.Random(0).shuffle(pairs)
        tree.bulk_load(pairs)
        tree.check_invariants()
        assert tree.search(17) == [(17, 0)]

    def test_null_keys_are_not_indexed(self):
        tree, _ = make_tree()
        tree.bulk_load((key, (i, 0)) for i, key in enumerate([2, None, 1, None]))
        tree.insert(None, (9, 0))
        tree.check_invariants()
        assert tree.entries == 2
        assert tree.range_search(float("-inf"), float("inf")) == [(2, 0), (0, 0)]

    def test_empty_tree(self):
        tree, _ = make_tree()
        tree.bulk_load([])
        assert tree.search(1) == []
        assert tree.entries == 0

    def test_range_search(self):
        tree, _ = make_tree()
        tree.bulk_load([(i, (i, 0)) for i in range(100)])
        rids = tree.range_search(10, 19)
        assert rids == [(i, 0) for i in range(10, 20)]

    def test_range_search_empty_range(self):
        tree, _ = make_tree()
        tree.bulk_load([(i, (i, 0)) for i in range(10)])
        assert tree.range_search(7, 3) == []

    def test_invariants_after_bulk_load(self):
        tree, _ = make_tree(fanout=4)
        tree.bulk_load([(i, (i, 0)) for i in range(333)])
        tree.check_invariants()

    def test_height_grows_logarithmically(self):
        tree, _ = make_tree(fanout=4)
        tree.bulk_load([(i, (i, 0)) for i in range(4)])
        assert tree.height == 1
        tree.bulk_load([(i, (i, 0)) for i in range(5)])
        assert tree.height == 2
        tree.bulk_load([(i, (i, 0)) for i in range(100)])
        assert tree.height == 4  # ceil(log4(100)) + leaf level packing


class TestProbeCost:
    def test_probe_charges_random_io_per_level(self):
        tree, meter = make_tree(fanout=4)
        tree.bulk_load([(i, (i, 0)) for i in range(64)])
        tree.pool.clear()
        meter.reset()
        tree.search(17)
        assert meter.random_ios == tree.height

    def test_probe_cost_small_like_paper(self):
        # "typically 3 I/Os or less": a realistic fanout over 100k entries.
        meter = CostMeter()
        pool = BufferPool(100_000, meter)
        tree = BTree("idx", pool, fanout=512)
        tree.bulk_load([(i, (i, 0)) for i in range(100_000)])
        assert tree.height <= 3


class TestInsert:
    def test_insert_then_search(self):
        tree, _ = make_tree(fanout=4)
        for i in range(50):
            tree.insert(i, (i, 0))
        tree.check_invariants()
        assert tree.search(31) == [(31, 0)]

    def test_insert_reverse_order(self):
        tree, _ = make_tree(fanout=4)
        for i in reversed(range(50)):
            tree.insert(i, (i, 0))
        tree.check_invariants()
        assert tree.range_search(0, 49) == [(i, 0) for i in range(50)]

    def test_insert_duplicates(self):
        tree, _ = make_tree(fanout=4)
        for i in range(30):
            tree.insert(7, (i, 0))
        tree.check_invariants()
        assert len(tree.search(7)) == 30

    def test_insert_into_bulk_loaded(self):
        tree, _ = make_tree(fanout=4)
        tree.bulk_load([(i * 2, (i, 0)) for i in range(40)])
        tree.insert(33, (99, 0))
        tree.check_invariants()
        assert (99, 0) in tree.search(33)


class TestPropertyBased:
    @given(
        st.lists(st.integers(-1000, 1000), min_size=0, max_size=300),
        st.integers(4, 32),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_after_bulk_load(self, keys, fanout):
        tree, _ = make_tree(fanout=fanout)
        pairs = [(key, (position, 0)) for position, key in enumerate(keys)]
        tree.bulk_load(pairs)
        tree.check_invariants()
        for probe in set(keys) | {0, 1234}:
            expected = sorted(rid for key, rid in pairs if key == probe)
            assert sorted(tree.search(probe)) == expected

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=120))
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_after_inserts(self, keys):
        tree, _ = make_tree(fanout=4)
        for position, key in enumerate(keys):
            tree.insert(key, (position, 0))
        tree.check_invariants()
        assert tree.entries == len(keys)
        low, high = min(keys), max(keys)
        expected = sorted(
            (key, (position, 0)) for position, key in enumerate(keys)
        )
        got = [
            (key, rid) for key, rid in tree.range_entries(low, high)
        ]
        assert sorted(got) == expected

    @given(
        st.lists(st.integers(0, 200), min_size=1, max_size=150),
        st.integers(0, 200),
        st.integers(0, 200),
    )
    @settings(max_examples=40, deadline=None)
    def test_range_search_matches_filter(self, keys, bound_a, bound_b):
        low, high = min(bound_a, bound_b), max(bound_a, bound_b)
        tree, _ = make_tree(fanout=5)
        tree.bulk_load([(key, (position, 0)) for position, key in enumerate(keys)])
        got = tree.range_search(low, high)
        expected = [
            rid
            for key, rid in sorted(
                ((key, (position, 0)) for position, key in enumerate(keys))
            )
            if low <= key <= high
        ]
        assert got == expected


class TestMetadata:
    def test_pages_positive(self):
        tree, _ = make_tree()
        tree.bulk_load([(i, (i, 0)) for i in range(100)])
        assert tree.pages > 0

    def test_default_fanout_from_page_size(self):
        meter = CostMeter()
        pool = BufferPool(10, meter)
        tree = BTree("idx", pool, page_size=8192)
        assert tree.fanout == 8192 // 16
