"""A B+-tree with two reads: a bounded scan and a batch probe.

This is the access-method substrate behind the ``ACCESS`` LOLEPOP's index
flavor, B-tree-organized base tables, and the dynamically-created indexes
of section 4.5.3.  Keys are tuples of non-NULL column values (the ordered
key-column list of the access path); values are opaque (normally RIDs).
Duplicate keys are supported unless the tree is created ``unique=True``.
:meth:`BTree.scan_range` streams the entries between two bounds, each
compared as a prefix of the stored keys, charging every node it visits
as one index-page read to the shared
:class:`~repro.storage.accounting.IOAccounting`.

The batch probe.  :meth:`BTree.lookup_many` answers a whole batch of
prefix probes (one per outer row of an index nested-loop join) from a
*directory*, not by descending once per prefix.  The directory holds the
tree's entries flattened in key order, the in-order separators, the
entry offset at which each leaf starts, and, for every key width probed
so far, a dict from each stored key prefix to its *run*: the offset and
number of its entries and the exact ``index_reads`` a ``scan_range``
from and to that prefix charges (the height, plus every step to a next
leaf), kept in three ``array`` columns.  A hit is one dict lookup, three
array reads and a list slice.  A missing prefix is charged from bisects
alone: the leaf a descent lands on is the count of in-order separators
below the prefix, and the walk ends in the leaf that holds the first key
at or above it.  A prefix holding a NULL is charged nothing.  The
directory is built on the first batch probe (one pass over the leaves,
then one pass per width) and dropped by :meth:`BTree.insert_many`;
like an insert, the batch probe is not safe to call from two threads at
once.  On the ``exec-probe`` workload of ``benchmarks/e2e`` the
directories of the four probed indexes (22 000 entries) hold 2.3 MB.
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
        """What one ``scan_range`` of ``prefix`` charges when entry
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


def _split_leaf(node: _Leaf) -> tuple[Key, _Leaf]:
    """Move the upper half of an overfull leaf into a new right sibling;
    returns the sibling's first key (the separator) and the sibling."""
    mid = len(node.keys) // 2
    right = _Leaf()
    right.keys = node.keys[mid:]
    right.values = node.values[mid:]
    node.keys = node.keys[:mid]
    node.values = node.values[:mid]
    right.next = node.next
    node.next = right
    return right.keys[0], right


def _split_internal(node: _Internal) -> tuple[Key, _Internal]:
    """Split an overfull internal node around its middle key, which
    moves up as the separator; returns it and the new right node."""
    mid = len(node.keys) // 2
    sep = node.keys[mid]
    right = _Internal(node.keys[mid + 1 :], node.children[mid + 1 :])
    node.keys = node.keys[:mid]
    node.children = node.children[: mid + 1]
    return sep, right


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

    def check(self, keys: Sequence[Key]) -> None:
        """Raise, changing nothing, unless every key of ``keys`` can go
        in: no key holds a None component (not indexable), and a unique
        tree holds no key twice, neither within ``keys`` nor with the
        entries it already has.  Charges no I/O."""
        if None in chain.from_iterable(keys):
            key = next(key for key in keys if None in key)
            raise StorageError(f"cannot index NULL key component in {key}")
        if not self._unique:
            return
        seen: set[Key] = set()
        for key in keys:
            if key in seen or self._holds(key):
                raise StorageError(f"duplicate key {key} in unique index")
            seen.add(key)

    def _holds(self, key: Key) -> bool:
        """Whether ``key`` is stored, found without charging I/O."""
        node = self._root
        while type(node) is _Internal:
            node = node.children[bisect_right(node.keys, key)]
        idx = bisect_left(node.keys, key)
        return idx < len(node.keys) and node.keys[idx] == key

    def insert(self, key: Key, value: Any) -> None:
        """Insert one entry: :meth:`insert_many` of one key."""
        self.insert_many((key,), (value,))

    def insert_many(self, keys: Sequence[Key], values: Sequence[Any]) -> None:
        """Insert ``keys[i] -> values[i]`` in order, after :meth:`check`
        passes all of them (so a rejected batch changes nothing).  Each
        entry descends from the root and lands exactly where inserting
        the entries one at a time would put it, so the batch leaves the
        same nodes, splits, height and ``index_writes``: one write per
        entry, two per split."""
        self.check(keys)
        if not keys:
            return
        self._directory = None
        order = self._order
        splits = 0
        for key, value in zip(keys, values):
            node = self._root
            path = []
            while type(node) is _Internal:
                idx = bisect_right(node.keys, key)
                path.append((node, idx))
                node = node.children[idx]
            leaf_keys = node.keys
            idx = bisect_left(leaf_keys, key)
            if idx < len(leaf_keys) and leaf_keys[idx] == key:
                node.values[idx].append(value)
                continue
            leaf_keys.insert(idx, key)
            node.values.insert(idx, [value])
            if len(leaf_keys) <= order:
                continue
            sep, right = _split_leaf(node)
            splits += 1
            while path:
                parent, idx = path.pop()
                parent.keys.insert(idx, sep)
                parent.children.insert(idx + 1, right)
                if len(parent.keys) <= order:
                    break
                sep, right = _split_internal(parent)
                splits += 1
            else:
                self._root = _Internal([sep], [self._root, right])
                self._height += 1
        self._count += len(keys)
        self._io.write_index(len(keys) + 2 * splits)

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

    def lookup_many(
        self, prefixes: Sequence[Key]
    ) -> tuple[list[int], list[Key], list[Any]]:
        """What draining ``scan_range(prefix, prefix)`` yields for each of
        ``prefixes``, from the directory (module docstring): ``(counts,
        keys, values)``, where ``counts[i]`` entries belong to
        ``prefixes[i]`` and ``keys`` / ``values`` hold every entry found,
        prefix after prefix, each prefix's in key order.  Charges exactly
        the index reads of those scans; a prefix holding a NULL matches
        nothing (no key holds one) and is charged none."""
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
                if run == 0 and None not in prefix
            )
        self._io.read_index(reads)
        runs = list(map(slice, los, map(add, los, counts)))
        keys = list(chain.from_iterable(map(directory.keys.__getitem__, runs)))
        values = list(chain.from_iterable(map(directory.values.__getitem__, runs)))
        return counts, keys, values
