"""Unit tests: heap files."""

import pytest

from repro.storage.buffer import BufferPool
from repro.storage.heap import HeapFile
from repro.storage.meter import CostMeter


def make_heap(rows=200, tuple_width=100, page_size=1000, pool_pages=100):
    meter = CostMeter()
    pool = BufferPool(pool_pages, meter)
    heap = HeapFile("t", tuple_width, pool, page_size=page_size)
    rids = [heap.insert((i, i * 2)) for i in range(rows)]
    return heap, rids, meter, pool


class TestHeapFile:
    def test_round_trip(self):
        heap, _, _, _ = make_heap(rows=50)
        assert heap.all_rows() == [(i, i * 2) for i in range(50)]

    def test_page_count(self):
        heap, _, _, _ = make_heap(rows=25, page_size=1000, tuple_width=100)
        assert heap.pages == 3  # 10 tuples per page

    def test_cardinality(self):
        heap, _, _, _ = make_heap(rows=25)
        assert heap.cardinality == 25

    def test_population_charges_nothing(self):
        _, _, meter, _ = make_heap()
        assert meter.charged == 0.0

    def test_scan_charges_sequential_per_page(self):
        heap, _, meter, _ = make_heap(rows=25, page_size=1000)
        rows = list(heap.scan())
        assert len(rows) == 25
        assert meter.seq_ios == 3
        assert meter.random_ios == 0

    def test_scan_order_matches_insert_order(self):
        heap, _, _, _ = make_heap(rows=30)
        assert list(heap.scan()) == heap.all_rows()

    def test_fetch_rid_is_random_io(self):
        heap, rids, meter, _ = make_heap(rows=25, page_size=1000)
        assert heap.fetch_rid(rids[17]) == (17, 34)
        assert meter.random_ios == 1

    def test_repeated_rid_fetch_hits_pool(self):
        heap, rids, meter, _ = make_heap(rows=25, page_size=1000)
        heap.fetch_rid(rids[3])
        heap.fetch_rid(rids[4])  # same page (10 per page)
        assert meter.random_ios == 1

    def test_rescan_within_pool_is_free(self):
        heap, _, meter, _ = make_heap(rows=25, page_size=1000, pool_pages=10)
        list(heap.scan())
        first = meter.seq_ios
        list(heap.scan())
        assert meter.seq_ios == first  # all pages cached

    def test_rescan_beyond_pool_pays_again(self):
        heap, _, meter, _ = make_heap(rows=50, page_size=1000, pool_pages=2)
        list(heap.scan())
        list(heap.scan())
        assert meter.seq_ios == 10  # 5 pages, LRU thrashes on each pass

    def test_bulk_load(self):
        meter = CostMeter()
        pool = BufferPool(10, meter)
        heap = HeapFile("t", 100, pool)
        heap.bulk_load(iter([(i,) for i in range(5)]))
        assert heap.cardinality == 5

    @pytest.mark.parametrize("already", [0, 1, 7, 8, 9])
    @pytest.mark.parametrize("loaded", [0, 1, 7, 8, 9, 100])
    def test_bulk_load_is_insert_per_row(self, already, loaded):
        """Same pages, same RIDs as one ``insert`` per row — also when the
        last page is partly filled (8 tuples fit a page here)."""
        rows = [(i,) for i in range(already + loaded)]
        pool = BufferPool(10, CostMeter())
        one_by_one = HeapFile("t", 100, pool, page_size=800)
        expected = [one_by_one.insert(row) for row in rows]
        sliced = HeapFile("t", 100, pool, page_size=800)
        for row in rows[:already]:
            sliced.insert(row)
        assert sliced.bulk_load(rows[already:]) is None
        rids = list(sliced.rids())
        assert rids == list(one_by_one.rids()) == expected
        assert sliced.cardinality == one_by_one.cardinality
        assert [page.rows for page in sliced.scan_pages()] == [
            page.rows for page in one_by_one.scan_pages()
        ]
        assert [sliced.fetch_rid(rid) for rid in rids] == rows
