"""The per-prefix B-tree readers: what the production reads are held to.

``BTree`` has two reads, :meth:`~repro.storage.btree.BTree.scan_range`
and the batch probe :meth:`~repro.storage.btree.BTree.lookup_many`.
These helpers are the slow, obvious readers the tests compare them
against: :func:`lookup` descends once per prefix and walks its leaves,
charging every node it visits, and :func:`scan_prefix` and
:func:`search` are the views tests find convenient.  Nothing under
``src/`` imports this module.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Iterator

from repro.storage.btree import BTree, Key


def lookup(tree: BTree, prefix: Key) -> list[tuple[Key, Any]]:
    """All entries whose key starts with ``prefix``, in key order, as a
    list: what draining ``scan_prefix(tree, prefix)`` yields, at the same
    index-read charge (including the step to ``leaf.next`` when the match
    ends exactly at a leaf boundary).  A prefix holding a NULL matches
    nothing and reads nothing."""
    if None in prefix:
        return []
    width = len(prefix)
    found: list[tuple[Key, Any]] = []
    leaf = tree._descend_to_leaf(prefix)
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
        tree._io.read_index(1)
        idx = 0


def scan_prefix(tree: BTree, prefix: Key) -> Iterator[tuple[Key, Any]]:
    """All entries whose key starts with ``prefix``, in key order."""
    return tree.scan_range(lo=prefix, hi=prefix)


def search(tree: BTree, key: Key) -> list[Any]:
    """All values stored under exactly ``key``."""
    return [value for found, value in lookup(tree, key) if found == key]
