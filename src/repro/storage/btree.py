"""A B+-tree supporting equality, prefix, and range scans.

This is the access-method substrate behind the ``ACCESS`` LOLEPOP's index
flavor, B-tree-organized base tables, and the dynamically-created indexes
of section 4.5.3.  Keys are tuples of column values (the ordered key-column
list of the access path); values are opaque (normally RIDs).  Duplicate
keys are supported unless the tree is created ``unique=True``.

Every node visited is charged as one index-page read to the shared
:class:`~repro.storage.accounting.IOAccounting`.

The batch probe.  :meth:`BTree.lookup_many` answers a whole batch of
prefix probes (one per outer row of an index nested-loop join) from a
*directory*, not by descending once per prefix.  The directory holds the
tree's entries flattened in key order (one reference to the key and one
to the value per entry), the in-order separators, the entry offset at
which each leaf starts, and, for every key width probed so far, a dict
from each stored key prefix to its *run*: the offset and number of its
entries and the exact ``index_reads`` one :meth:`BTree.lookup` of it
charges (the height, plus every step to a next leaf the walk takes),
kept in three ``array`` columns.  A hit is one dict lookup, three array
reads and a list slice.  A prefix nothing is stored under is charged
from bisects alone: the leaf a descent lands on is the count of in-order
separators below the prefix, and the walk ends in the leaf that holds
the first key at or above it.  The directory is built on the first
batch probe (one pass over the leaves, then one pass per width) and
dropped by :meth:`BTree.insert`, so a tree probed while it grows
rebuilds it; like ``insert``, the batch probe is not safe to call from
two threads at once.  Nothing else reads the directory:
:meth:`BTree.lookup` stays the per-prefix reference.  On the
``exec-probe`` workload of ``benchmarks/e2e`` the directories of the
four probed indexes (22 000 entries) hold 2.3 MB.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import chain, repeat
from operator import add
from typing import Any, Iterator, Sequence

from repro.errors import StorageError
from repro.storage.accounting import IOAccounting

Key = tuple[Any, ...]


class _Leaf:
    __slots__ = ("keys", "values", "next")

    def __init__(self) -> None:
        self.keys: list[Key] = []
        self.values: list[list[Any]] = []
        self.next: _Leaf | None = None


class _Internal:
    __slots__ = ("keys", "children")

    def __init__(self, keys: list[Key], children: list[Any]):
        self.keys = keys
        self.children = children


class _Directory:
    """The batch probe's view of a tree: entries flattened in key order
    and, per key width, every stored prefix's run (module docstring).
    Run 0 is the empty run every missing prefix maps to."""

    __slots__ = (
        "height", "keys", "values", "separators", "leaf_starts",
        "widths", "runs", "lo", "count", "reads",
    )

    def __init__(self, root: _Leaf | _Internal, height: int) -> None:
        self.height = height
        self.separators: list[Key] = []
        _collect_separators(root, self.separators)
        self.keys: list[Key] = []
        self.values: list[Any] = []
        self.leaf_starts: list[int] = []
        leaf = root
        while isinstance(leaf, _Internal):
            leaf = leaf.children[0]
        while leaf is not None:
            self.leaf_starts.append(len(self.keys))
            self.keys.extend(
                chain.from_iterable(map(repeat, leaf.keys, map(len, leaf.values)))
            )
            self.values.extend(chain.from_iterable(leaf.values))
            leaf = leaf.next
        self.widths: set[int] = set()
        self.runs: dict[Key, int] = {}
        self.lo = array("q", [0])
        self.count = array("q", [0])
        self.reads = array("q", [0])

    def add_width(self, width: int) -> None:
        """Map every stored prefix of ``width`` components to a new run."""
        keys, runs = self.keys, self.runs
        lo, count, reads = self.lo, self.count, self.reads
        n = len(keys)
        start = 0
        while start < n:
            prefix = keys[start][:width]
            # Step over the run one distinct key at a time (a key's
            # duplicates are adjacent entries).
            stop = bisect_right(keys, keys[start], start)
            while stop < n and keys[stop][:width] == prefix:
                stop = bisect_right(keys, keys[stop], stop)
            runs[prefix] = len(lo)
            lo.append(start)
            count.append(stop - start)
            reads.append(self.walk_reads(prefix, stop))
            start = stop
        self.widths.add(width)

    def walk_reads(self, prefix: Key, stop: int) -> int:
        """What one :meth:`BTree.lookup` of ``prefix`` charges when entry
        ``stop`` is the first at or after the prefix that it does not
        start: the descent, which lands in the leaf after every separator
        below the prefix, plus one read per step to a next leaf, up to
        the leaf holding entry ``stop`` (the last leaf when ``stop`` is
        the end)."""
        return (
            self.height
            + bisect_right(self.leaf_starts, stop) - 1
            - bisect_left(self.separators, prefix)
        )


def _collect_separators(node: _Leaf | _Internal, out: list[Key]) -> None:
    """Append the separators under ``node`` in order (between its
    subtrees, recursively)."""
    if isinstance(node, _Internal):
        _collect_separators(node.children[0], out)
        for sep, child in zip(node.keys, node.children[1:]):
            out.append(sep)
            _collect_separators(child, out)


class BTree:
    """A B+-tree keyed on tuples of values.

    ``order`` is the maximum number of keys per node (fanout - 1).
    """

    def __init__(self, io: IOAccounting, order: int = 64, unique: bool = False):
        if order < 3:
            raise StorageError("B-tree order must be >= 3")
        self._io = io
        self._order = order
        self._unique = unique
        self._root: _Leaf | _Internal = _Leaf()
        self._height = 1
        self._count = 0
        self._directory: _Directory | None = None

    def __len__(self) -> int:
        return self._count

    @property
    def height(self) -> int:
        return self._height

    # -- insertion -----------------------------------------------------------

    def insert(self, key: Key, value: Any) -> None:
        """Insert one entry.  Raises on None key components (not
        indexable) and on duplicate keys in a unique tree."""
        if any(part is None for part in key):
            raise StorageError(f"cannot index NULL key component in {key}")
        self._directory = None
        split = self._insert(self._root, key, value)
        if split is not None:
            sep, right = split
            self._root = _Internal([sep], [self._root, right])
            self._height += 1
        self._count += 1
        self._io.write_index(1)

    def _insert(self, node: _Leaf | _Internal, key: Key, value: Any):
        if isinstance(node, _Leaf):
            idx = bisect_left(node.keys, key)
            if idx < len(node.keys) and node.keys[idx] == key:
                if self._unique:
                    raise StorageError(f"duplicate key {key} in unique index")
                node.values[idx].append(value)
                return None
            node.keys.insert(idx, key)
            node.values.insert(idx, [value])
            if len(node.keys) > self._order:
                return self._split_leaf(node)
            return None
        idx = bisect_right(node.keys, key)
        split = self._insert(node.children[idx], key, value)
        if split is not None:
            sep, right = split
            node.keys.insert(idx, sep)
            node.children.insert(idx + 1, right)
            if len(node.keys) > self._order:
                return self._split_internal(node)
        return None

    def _split_leaf(self, node: _Leaf):
        mid = len(node.keys) // 2
        right = _Leaf()
        right.keys = node.keys[mid:]
        right.values = node.values[mid:]
        node.keys = node.keys[:mid]
        node.values = node.values[:mid]
        right.next = node.next
        node.next = right
        self._io.write_index(2)
        return right.keys[0], right

    def _split_internal(self, node: _Internal):
        mid = len(node.keys) // 2
        sep = node.keys[mid]
        right = _Internal(node.keys[mid + 1 :], node.children[mid + 1 :])
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        self._io.write_index(2)
        return sep, right

    # -- search --------------------------------------------------------------

    def _descend_to_leaf(self, key: Key | None) -> _Leaf:
        """Find the left-most leaf that can contain ``key`` (or the
        left-most leaf overall when key is None), charging one read per
        level (every leaf is ``height`` nodes below the root)."""
        node = self._root
        for _ in range(self._height - 1):
            # Equal separators can have equal keys in the left child
            # too (duplicates), so descend left of an equal separator.
            node = node.children[0 if key is None else bisect_left(node.keys, key)]
        self._io.read_index(self._height)
        return node

    @staticmethod
    def _prefix_cmp(key: Key, bound: Key) -> int:
        """Compare ``key`` against ``bound`` on the first len(bound)
        components: -1 below, 0 within, +1 above."""
        prefix = key[: len(bound)]
        if prefix < bound:
            return -1
        if prefix > bound:
            return 1
        return 0

    def scan_range(
        self,
        lo: Key | None = None,
        hi: Key | None = None,
        lo_inclusive: bool = True,
        hi_inclusive: bool = True,
    ) -> Iterator[tuple[Key, Any]]:
        """Scan entries in key order between ``lo`` and ``hi``.

        Bounds are compared on their own length as prefixes of the stored
        keys, so ``lo=(5,)`` against keys ``(dno, name)`` selects all keys
        whose first component relates to 5 as requested.  Yields
        ``(key, value)`` pairs, flattening duplicate values.
        """
        leaf: _Leaf | None = self._descend_to_leaf(lo)
        # Start at the first key >= lo: a bound shorter than the stored
        # keys sorts before every key it prefixes.  Only an exclusive
        # lower bound still has keys to step over (those it prefixes).
        idx = 0 if lo is None else bisect_left(leaf.keys, lo)
        skipping = lo is not None and not lo_inclusive
        while leaf is not None:
            keys = leaf.keys
            for idx in range(idx, len(keys)):
                key = keys[idx]
                if skipping:
                    if self._prefix_cmp(key, lo) == 0:
                        continue
                    skipping = False
                if hi is not None:
                    cmp = self._prefix_cmp(key, hi)
                    if cmp > 0 or (cmp == 0 and not hi_inclusive):
                        return
                for value in leaf.values[idx]:
                    yield key, value
            leaf = leaf.next
            idx = 0
            if leaf is not None:
                self._io.read_index(1)

    def lookup(self, prefix: Key) -> list[tuple[Key, Any]]:
        """All entries whose key starts with ``prefix``, in key order, as
        a list: what draining ``scan_prefix(prefix)`` yields, at the same
        index-read charge (including the step to ``leaf.next`` when the
        match ends exactly at a leaf boundary), without a generator."""
        width = len(prefix)
        found: list[tuple[Key, Any]] = []
        leaf = self._descend_to_leaf(prefix)
        idx = bisect_left(leaf.keys, prefix)
        while True:
            keys = leaf.keys
            for idx in range(idx, len(keys)):
                key = keys[idx]
                if key[:width] != prefix:
                    return found
                for value in leaf.values[idx]:
                    found.append((key, value))
            leaf = leaf.next
            if leaf is None:
                return found
            self._io.read_index(1)
            idx = 0

    def lookup_many(
        self, prefixes: Sequence[Key]
    ) -> tuple[list[int], list[Key], list[Any]]:
        """What :meth:`lookup` finds for each of ``prefixes``, from the
        directory (module docstring): ``(counts, keys, values)``, where
        ``counts[i]`` entries belong to ``prefixes[i]`` and ``keys`` /
        ``values`` hold every entry found, prefix after prefix, each
        prefix's in key order.  Charges exactly the index reads of one
        :meth:`lookup` per prefix."""
        directory = self._directory
        if directory is None:
            directory = self._directory = _Directory(self._root, self._height)
        for width in set(map(len, prefixes)) - directory.widths:
            directory.add_width(width)
        found = list(map(directory.runs.get, prefixes, repeat(0)))
        los = list(map(directory.lo.__getitem__, found))
        counts = list(map(directory.count.__getitem__, found))
        reads = sum(map(directory.reads.__getitem__, found))
        if 0 in found:
            keys = directory.keys
            reads += sum(
                directory.walk_reads(prefix, bisect_left(keys, prefix))
                for prefix, run in zip(prefixes, found)
                if run == 0
            )
        self._io.read_index(reads)
        runs = list(map(slice, los, map(add, los, counts)))
        keys = list(chain.from_iterable(map(directory.keys.__getitem__, runs)))
        values = list(chain.from_iterable(map(directory.values.__getitem__, runs)))
        return counts, keys, values

    def scan_prefix(self, prefix: Key) -> Iterator[tuple[Key, Any]]:
        """All entries whose key starts with ``prefix``, in key order."""
        return self.scan_range(lo=prefix, hi=prefix)

    def scan_all(self) -> Iterator[tuple[Key, Any]]:
        """Full scan in key order."""
        return self.scan_range()

    def search(self, key: Key) -> list[Any]:
        """All values stored under exactly ``key``."""
        return [value for found, value in self.lookup(key) if found == key]
