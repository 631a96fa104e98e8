"""A B+-tree supporting equality, prefix, and range scans.

This is the access-method substrate behind the ``ACCESS`` LOLEPOP's index
flavor, B-tree-organized base tables, and the dynamically-created indexes
of section 4.5.3.  Keys are tuples of column values (the ordered key-column
list of the access path); values are opaque (normally RIDs).  Duplicate
keys are supported unless the tree is created ``unique=True``.

Every node visited is charged as one index-page read to the shared
:class:`~repro.storage.accounting.IOAccounting`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Iterator

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

    def scan_prefix(self, prefix: Key) -> Iterator[tuple[Key, Any]]:
        """All entries whose key starts with ``prefix``, in key order."""
        return self.scan_range(lo=prefix, hi=prefix)

    def scan_all(self) -> Iterator[tuple[Key, Any]]:
        """Full scan in key order."""
        return self.scan_range()

    def search(self, key: Key) -> list[Any]:
        """All values stored under exactly ``key``."""
        return [value for found, value in self.lookup(key) if found == key]
