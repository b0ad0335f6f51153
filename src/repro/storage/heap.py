"""Heap files: unordered pages of fixed-width tuples.

A heap file owns its pages and exposes page-at-a-time scans whose I/O is
charged through the shared buffer pool. Sequential scans use the sequential
I/O rate; RID fetches (as done by unclustered index scans) use the random
rate, matching the paper's "unclustered tuples" costing.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, Iterator

from repro.storage.buffer import BufferPool
from repro.storage.meter import IOKind
from repro.storage.page import DEFAULT_PAGE_SIZE, Page, RID, tuples_per_page


class HeapFile:
    """An append-only heap of fixed-width tuples."""

    def __init__(
        self,
        name: str,
        tuple_width: int,
        pool: BufferPool,
        page_size: int = DEFAULT_PAGE_SIZE,
    ) -> None:
        self.name = name
        self.tuple_width = tuple_width
        self.page_size = page_size
        self.pool = pool
        self.file_id = pool.register_file()
        self._capacity = tuples_per_page(page_size, tuple_width)
        self._pages: list[Page] = []
        self._cardinality = 0

    # -- population ------------------------------------------------------

    def insert(self, row: tuple) -> RID:
        """Append one tuple, returning its RID. No I/O is charged: bulk
        population models the pre-existing database, not query work."""
        if not self._pages or self._pages[-1].is_full:
            self._pages.append(Page(len(self._pages), self._capacity))
        page = self._pages[-1]
        slot = page.insert(row)
        self._cardinality += 1
        return (page.page_no, slot)

    def bulk_load(self, rows: Iterable[tuple]) -> None:
        """Append ``rows`` a page-sized slice at a time: what ``insert``
        per row does, without the per-row calls."""
        rows = list(rows)
        capacity = self._capacity
        pages = self._pages
        first = self._cardinality
        top_up = -first % capacity  # room left on a partly filled last page
        if top_up:
            pages[-1].rows.extend(rows[:top_up])
        for start in range(top_up, len(rows), capacity):
            pages.append(
                Page(len(pages), capacity, rows[start : start + capacity])
            )
        self._cardinality = first + len(rows)

    # -- access ----------------------------------------------------------

    @property
    def pages(self) -> int:
        return len(self._pages)

    @property
    def cardinality(self) -> int:
        return self._cardinality

    def rids(self) -> Iterator[RID]:
        """Every tuple's RID in file order, derived on demand: every page
        but the last is full, so tuple *i* sits at ``divmod(i, capacity)``
        and nothing need be stored."""
        return map(divmod, range(self._cardinality), repeat(self._capacity))

    def scan_pages(self) -> Iterator[Page]:
        """Full sequential scan, charging one sequential I/O per page."""
        for page in self._pages:
            self.pool.fetch(self.file_id, page.page_no, IOKind.SEQUENTIAL)
            yield page

    def scan(self) -> Iterator[tuple]:
        """Full sequential scan, tuple at a time."""
        for page in self.scan_pages():
            yield from page.rows

    def fetch_rid(self, rid: RID) -> tuple:
        """Random fetch of one tuple by RID (unclustered index access)."""
        page_no, slot = rid
        self.pool.fetch(self.file_id, page_no, IOKind.RANDOM)
        return self._pages[page_no].slot(slot)

    def all_rows(self) -> list[tuple]:
        """Uncharged access to every row — for statistics and tests only."""
        rows: list[tuple] = []
        for page in self._pages:
            rows.extend(page.rows)
        return rows
