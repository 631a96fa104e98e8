"""A page-structured heap file.

Rows are Python tuples stored in fixed-capacity pages.  A row identifier
(:class:`RID`) is a ``(page_number, slot)`` pair — the paper's *tuple
identifier (TID)* that the ``GET`` LOLEPOP uses to fetch additional
columns from the stored table (Figure 1).
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Iterator, NamedTuple

from repro.errors import StorageError
from repro.storage.accounting import IOAccounting

Row = tuple[Any, ...]


class RID(NamedTuple):
    """Row identifier: page number and slot within the page."""

    page: int
    slot: int

    def __str__(self) -> str:
        return f"@{self.page}.{self.slot}"


class HeapFile:
    """A physically-sequential heap of tuples.

    ``rows_per_page`` controls page granularity; scans charge one page
    read per page touched, point fetches charge one page read.
    """

    def __init__(self, io: IOAccounting, rows_per_page: int = 64):
        if rows_per_page < 1:
            raise StorageError("rows_per_page must be >= 1")
        self._io = io
        self._rows_per_page = rows_per_page
        self._pages: list[list[Row]] = []
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def page_count(self) -> int:
        return len(self._pages)

    @property
    def next_rid(self) -> RID:
        """The RID the next appended row gets."""
        pages = self._pages
        if pages and len(pages[-1]) < self._rows_per_page:
            return RID(len(pages) - 1, len(pages[-1]))
        return RID(len(pages), 0)

    def insert(self, row: Row) -> RID:
        """Append one row, returning its RID: :meth:`append` of one."""
        rid = self.next_rid
        self.append([row])
        return rid

    def append(self, rows: list[Row]) -> None:
        """Append rows in order: fill the last page, then add whole pages
        as slices of ``rows``.  Charges one page write per new page (a
        bulk load costs one write per page)."""
        pages = self._pages
        per = self._rows_per_page
        start = 0
        if pages and len(pages[-1]) < per:
            start = per - len(pages[-1])
            pages[-1].extend(rows[:start])
        new = [rows[i : i + per] for i in range(start, len(rows), per)]
        pages.extend(new)
        self._io.write_pages(len(new))
        self._count += len(rows)

    def rids(self, first: RID, count: int) -> list[RID]:
        """The RIDs of ``count`` rows appended in one run from ``first``
        on (``first`` is what :attr:`next_rid` read before the append)."""
        per = self._rows_per_page
        page, slot = first
        out: list[RID] = []
        while count > 0:
            n = min(per - slot, count)
            out.extend(map(RID, repeat(page, n), range(slot, slot + n)))
            count -= n
            page += 1
            slot = 0
        return out

    def fetch(self, rid: RID) -> Row:
        """Fetch one row by RID (one page read)."""
        try:
            row = self._pages[rid.page][rid.slot]
        except IndexError:
            raise StorageError(f"bad RID {rid}") from None
        self._io.read_pages(1)
        return row

    def scan(self) -> Iterator[tuple[RID, Row]]:
        """Physically-sequential scan.  Charges one read per page as the
        scan enters it; a partially-consumed scan charges only the pages
        actually visited."""
        for page_no, page in enumerate(self._pages):
            self._io.read_pages(1)
            for slot, row in enumerate(page):
                yield RID(page_no, slot), row

    def scan_pages(self) -> Iterator[tuple[int, list[Row]]]:
        """Page-at-a-time scan for the vectorized executor, with the same
        lazy accounting as :meth:`scan` — one read charged per page
        entered.  Yields ``(page_no, rows)`` per page: row ``s`` has RID
        ``(page_no, s)``, and ``rows`` is the stored page (callers must not
        mutate it), so a scan builds no RIDs and copies nothing."""
        for page_no, page in enumerate(self._pages):
            self._io.read_pages(1)
            yield page_no, page
