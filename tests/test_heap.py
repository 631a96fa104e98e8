"""Unit tests for the page-structured heap file."""

import pytest

from repro.errors import StorageError
from repro.storage import HeapFile, IOAccounting, RID


@pytest.fixture()
def io():
    return IOAccounting()


@pytest.fixture()
def heap(io):
    return HeapFile(io, rows_per_page=4)


class TestHeapBasics:
    def test_insert_returns_sequential_rids(self, heap):
        rids = [heap.insert((i,)) for i in range(6)]
        assert rids[0] == RID(0, 0)
        assert rids[3] == RID(0, 3)
        assert rids[4] == RID(1, 0)

    def test_len_and_pages(self, heap):
        for i in range(9):
            heap.insert((i,))
        assert len(heap) == 9
        assert heap.page_count == 3

    def test_fetch(self, heap):
        rid = heap.insert((7, "x"))
        assert heap.fetch(rid) == (7, "x")

    def test_fetch_bad_rid(self, heap):
        with pytest.raises(StorageError, match="bad RID"):
            heap.fetch(RID(5, 0))

    def test_scan_order_and_completeness(self, heap):
        rows = [(i,) for i in range(10)]
        for row in rows:
            heap.insert(row)
        assert [row for _, row in heap.scan()] == rows

    def test_rows_per_page_validated(self, io):
        with pytest.raises(StorageError):
            HeapFile(io, rows_per_page=0)


class TestHeapAccounting:
    def test_bulk_load_writes_one_per_page(self, io, heap):
        for i in range(8):
            heap.insert((i,))
        assert io.page_writes == 2

    def test_scan_reads_one_per_page(self, io, heap):
        for i in range(8):
            heap.insert((i,))
        before = io.page_reads
        list(heap.scan())
        assert io.page_reads - before == 2

    def test_partial_scan_charges_visited_pages_only(self, io, heap):
        for i in range(12):
            heap.insert((i,))
        before = io.page_reads
        scan = heap.scan()
        next(scan)  # only the first page is entered
        assert io.page_reads - before == 1

    def test_fetch_charges_one_read(self, io, heap):
        rid = heap.insert((1,))
        before = io.page_reads
        heap.fetch(rid)
        assert io.page_reads - before == 1

    def test_snapshot_delta(self, io, heap):
        heap.insert((1,))
        snap = io.snapshot()
        heap.insert((2,))
        list(heap.scan())
        delta = io.since(snap)
        assert delta.page_reads == 1
        assert delta.total_reads == 1
        assert delta.total >= 1
